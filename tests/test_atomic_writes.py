"""Every file ``src`` writes goes through ``atomic_write``.

A write that raises part-way leaves the old target intact and no temporary
file behind. The ``ast`` scan below fails on any ``open`` call in the
package that can write (mode with ``w``, ``a``, ``x`` or ``+``, or a mode
that is not a literal) outside ``atomic_write`` itself. A second scan keeps
directory creation and JSON encoding in ``crashrl/atomic.py`` and every
write out of ``cli.py``, whose commands are one harness call each.
"""

import ast
import contextlib
import os
from pathlib import Path

import numpy as np
import pytest

import crashrl.records as records_mod
from crashrl.agents import Agent, AgentConfig
from crashrl.atomic import atomic_write, write_csv, write_json
from crashrl.env import EnvConfig, generate_episode, load_episode_file, write_episode_file

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crashrl"
HELPER = (PACKAGE / "atomic.py", "atomic_write")


def _mode(call: ast.Call):
    """The mode argument of an ``open`` call, or None when it is absent."""
    if len(call.args) >= 2:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def writing_opens(path):
    """(line, function) of each ``open`` call in path that can write a file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            scope = child.name if is_def else function
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                mode = _mode(child)
                if name == "open" and mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")
                ):
                    found.append((child.lineno, function))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_every_write_in_src_goes_through_atomic_write():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, function in writing_opens(path)
        if (path, function) != HELPER
    ]
    assert not offenders, "open() for writing outside atomic_write:\n" + "\n".join(offenders)
    assert len(writing_opens(HELPER[0])) == 1


def called_names(path):
    """(line, name) of each call in path, by the callee's last name part, in line order."""
    return sorted(
        (node.lineno, node.func.id if isinstance(node.func, ast.Name) else node.func.attr)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    )


# What the CLI leaves to the harness: choosing episodes and writing files.
CLI_NEVER_CALLS = {
    "atomic_write", "write_json", "write_csv", "write_report", "export_traces",
    "write_config_snapshot", "generate_episode", "load_episode_file",
}


def test_directories_and_json_only_in_atomic_and_no_writes_in_the_cli():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != HELPER[0]
        for line, name in called_names(path)
        if name in ("makedirs", "dump")
    ]
    offenders += [
        f"cli.py:{line}: {name}"
        for line, name in called_names(PACKAGE / "cli.py")
        if name in CLI_NEVER_CALLS
    ]
    assert not offenders, "\n".join(offenders)


def test_the_call_scan_sees_attribute_and_bare_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os, json\n"
        "from crashrl.metrics import write_report\n"
        "os.makedirs('d', exist_ok=True)\n"
        "json.dump({}, f)\n"
        "write_report(r, 'd')\n"
        "print(write_report)\n"
    )
    assert called_names(sample) == [
        (3, "makedirs"), (4, "dump"), (5, "write_report"), (6, "print")
    ]


def test_text_form_and_parent_directories(tmp_path):
    write_json(tmp_path / "a" / "b" / "m.json", {"z": 1, "é": [0.1, 2]})
    assert (tmp_path / "a" / "b" / "m.json").read_bytes() == (
        '{\n  "z": 1,\n  "\\u00e9": [\n    0.1,\n    2\n  ]\n}\n'.encode()
    )
    write_csv(tmp_path / "c" / "t.csv", ("name", "x"), [("é", 0.1), ("b", 1e-300)])
    assert (tmp_path / "c" / "t.csv").read_bytes() == "name,x\né,0.1\nb,1e-300\n".encode()
    with atomic_write(tmp_path / "d" / "lines.txt") as f:
        f.write("one\ntwo\n")
    assert (tmp_path / "d" / "lines.txt").read_bytes() == b"one\ntwo\n"


def test_a_bare_file_name_writes_into_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json("m.json", [])
    assert (tmp_path / "m.json").read_bytes() == b"[]\n"


def test_the_scan_sees_every_writing_open(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import io\n"
        "def f(p, m):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='wb')\n"
        "    io.open(p, 'a', encoding='utf-8')\n"
        "    open(p, 'r+')\n"
        "    open(p, m)\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, mode='r')\n"
    )
    assert writing_opens(sample) == [(3, "f"), (4, "f"), (5, "f"), (6, "f"), (7, "f")]


def test_failed_write_keeps_the_old_target_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="mid-file"):
        with atomic_write(path, "w") as f:
            f.write("new, partial")
            raise RuntimeError("mid-file")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "fresh.csv") as f:
            raise RuntimeError("before any byte")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_checkpoint_interrupted_mid_file_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    cfg = AgentConfig(algo="td3", hidden_dims=(8,))
    path = tmp_path / "ck.txt"
    Agent(cfg, obs_dim=4, seed=0).save(path)
    old = path.read_bytes()
    written = []

    class FailsInThePayload:
        """Writes the header and the first network, then half the second, then raises."""

        def __init__(self, f):
            self.f = f

        def write(self, data):
            data = memoryview(data).cast("B")
            if len(written) == 2:
                self.f.write(data[: len(data) // 2])
                self.f.flush()
                written.append(os.path.getsize(f"{path}.tmp"))
                raise RuntimeError("interrupted")
            written.append(len(data))
            return self.f.write(data)

    @contextlib.contextmanager
    def interrupted_write(target, mode):
        with atomic_write(target, mode) as f:
            yield FailsInThePayload(f)

    monkeypatch.setattr(records_mod, "atomic_write", interrupted_write)
    with pytest.raises(RuntimeError, match="interrupted"):
        Agent(cfg, obs_dim=4, seed=1).save(path)
    header = old.index(b"\n") + 1
    assert written[0] == header and header < written[-1] < len(old)  # stopped mid-payload
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.txt"]


def test_episode_temp_file_is_not_listed_as_an_episode(tmp_path):
    path = tmp_path / "episode_00001.ade"
    episode = generate_episode(EnvConfig(episode_len=5), 1)
    with atomic_write(path, "wb"):
        assert list(tmp_path.glob("*.ade")) == []
        assert [p.name for p in tmp_path.iterdir()] == ["episode_00001.ade.tmp"]
    write_episode_file(episode, path)
    assert [p.name for p in tmp_path.iterdir()] == ["episode_00001.ade"]
    assert np.array_equal(load_episode_file(path).saliency, episode.saliency)


def test_only_text_and_binary_write_modes(tmp_path):
    with pytest.raises(ValueError, match="mode must be 'w' or 'wb', got 'a'"):
        with atomic_write(tmp_path / "x", "a"):
            pass
    assert list(tmp_path.iterdir()) == []
