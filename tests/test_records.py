"""One module owns the record framing: header line, CRC-32 and payload checks.

Episode files (ADE2) and checkpoints (ACP3) both go through
``crashrl.records``. The ``ast`` scan below fails on any piece of that
framing elsewhere in the package: an import of ``zlib``, a ``crc32`` name
or attribute, an ``isascii`` call (the header's ASCII check), an ``int``
call with base 16 (the CRC field), or a bytes literal holding a newline
(the search for the end of line 1).
"""

import ast
import zlib
from pathlib import Path

import numpy as np
import pytest

from crashrl.agents import Agent, AgentConfig
from crashrl.env import EnvConfig, generate_episode, load_episode_file, write_episode_file
from crashrl.records import format_float, read_record, write_record

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crashrl"
FRAMING = PACKAGE / "records.py"


def _hex_int(call: ast.Call) -> bool:
    base = call.args[1] if len(call.args) >= 2 else next(
        (k.value for k in call.keywords if k.arg == "base"), None
    )
    return isinstance(base, ast.Constant) and base.value == 16


def framing_code(path):
    """(line, what) of each piece of record framing in path, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) and any(a.name == "zlib" for a in node.names):
            found.append((node.lineno, "import zlib"))
        elif isinstance(node, ast.ImportFrom) and node.module == "zlib":
            found.append((node.lineno, "import zlib"))
        elif isinstance(node, ast.Attribute) and node.attr in ("crc32", "isascii"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "crc32":
            found.append((node.lineno, "crc32"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "int" and _hex_int(node)):
            found.append((node.lineno, "int(..., 16)"))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, bytes)
              and b"\n" in node.value):
            found.append((node.lineno, "bytes newline"))
    return sorted(found)


def test_only_the_framing_module_frames_records():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != FRAMING
        for line, what in framing_code(path)
    ]
    assert not offenders, "record framing outside crashrl/records.py:\n" + "\n".join(offenders)
    kinds = {what for _, what in framing_code(FRAMING)}
    assert kinds == {"import zlib", "crc32", "isascii", "int(..., 16)", "bytes newline"}


def test_the_scan_sees_every_piece_of_framing(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import zlib\n"
        "from zlib import crc32\n"
        "def f(raw, token):\n"
        "    zlib.crc32(raw)\n"
        "    crc32(raw)\n"
        "    raw.isascii()\n"
        "    int(token, 16)\n"
        "    int(token, base=16)\n"
        "    raw.find(b'\\n')\n"
        "    int(token)\n"
        "    raw.find(b' ')\n"
        "    token.split('\\n')\n"
    )
    assert framing_code(sample) == [
        (1, "import zlib"), (2, "import zlib"), (4, "crc32"), (5, "crc32"),
        (6, "isascii"), (7, "int(..., 16)"), (8, "int(..., 16)"), (9, "bytes newline"),
    ]


USAGE = "TST1 <n> <x> <name> <crc32>"
TYPES = (int, float, str)
RETIRED = {"TST0": "TST0 is the retired test format"}


def _read(path):
    return read_record(path, USAGE, TYPES, retired=RETIRED)


def test_chunks_are_one_payload_under_one_crc(tmp_path):
    path = tmp_path / "r.bin"
    chunks = [b"ab", np.array([0.5, -0.0, 5e-324], dtype="<f8"), np.zeros((2, 3), "<f4")]
    write_record(path, ["TST1", 2, format_float(0.1), "x"], chunks)
    joined = b"".join(bytes(memoryview(c).cast("B")) for c in chunks)
    assert path.read_bytes() == (
        f"TST1 2 0.10000000000000001 x {zlib.crc32(joined):08x}\n".encode("ascii") + joined
    )
    record = _read(path)
    assert record.fields == [2, 0.1, "x"]
    assert bytes(record.payload(len(joined), "n")) == joined


@pytest.mark.parametrize(
    "header, message",
    [
        (b"TST1 2 0.5", "expected 'TST1 <n> <x> <name> <crc32>'"),
        (b"TST2 2 0.5 x 00000000", "expected 'TST1 <n> <x> <name> <crc32>'"),
        (b"TST0 2", "TST0 is the retired test format"),
        (b"TST1 2.5 0.5 x 00000000",
         "malformed header: invalid literal for int() with base 10: '2.5'"),
        (b"TST1 2 0.5 x 0000zz00",
         "malformed header: invalid literal for int() with base 16: '0000zz00'"),
        (b"TST1 1_0 0.5 x 00000000", "'_' is not allowed in a number"),
        (b"TST1 2 0.5 \xc3\xa9 00000000", "non-ASCII byte 0xc3"),
    ],
)
def test_header_errors_name_path_and_line_one(tmp_path, header, message):
    path = tmp_path / "r.bin"
    path.write_bytes(header + b"\n\x00\x01")
    with pytest.raises(ValueError) as info:
        _read(path)
    assert str(info.value) == f"{path}: line 1: {message}"


def test_payload_length_then_crc(tmp_path):
    path = tmp_path / "r.bin"
    write_record(path, ["TST1", 1, 1.0, "y"], [b"\x00\x01\x02\x03"])
    record = _read(path)
    with pytest.raises(ValueError) as info:
        record.payload(8, "8*n")
    assert str(info.value) == (
        f"{path}: payload is 4 bytes, expected 8 (8*n; truncated or extended file)"
    )
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x80
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as info:
        _read(path).payload(4, "4*n")
    want = raw.split(b"\n")[0].split()[-1].decode("ascii")
    assert str(info.value) == (
        f"{path}: payload CRC-32 is {zlib.crc32(raw[-4:]):08x}, the header says {want}"
    )


def test_empty_file_and_format_errors(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes(b"")
    with pytest.raises(KeyError, match="empty file"):
        read_record(path, USAGE, TYPES, error=KeyError)
    write_record(path, ["TST1", 0, 2.0, "z"], [])
    record = read_record(path, USAGE, TYPES, error=KeyError)
    assert isinstance(record.fail("n must be positive"), KeyError)
    assert str(record.fail("n must be positive")) == repr(f"{path}: line 1: n must be positive")


@pytest.mark.parametrize(
    "form", ["0x{}", "+{}", "000{}", "upper"], ids=["0x", "plus", "leading-zeros", "upper"]
)
@pytest.mark.parametrize("tag", ["ADE2", "ACP3"])
def test_crc_field_must_be_the_written_form(tmp_path, tag, form):
    """int(field, 16) takes each of these forms of the right CRC; none loads."""
    path = tmp_path / "r.bin"
    if tag == "ADE2":
        env = EnvConfig(grid_h=4, grid_w=4, pool_h=2, pool_w=2, episode_len=6)
        write_episode_file(generate_episode(env, 0), path)
        load = load_episode_file
    else:
        cfg = AgentConfig(algo="td3", hidden_dims=(4,))
        Agent(cfg, obs_dim=8, seed=0).save(path)
        def load(p):
            return Agent.load(p, cfg)
    load(path)  # the form write_record writes loads
    line, payload = path.read_bytes().split(b"\n", 1)
    fields = line.decode("ascii").split()
    crc = fields[-1]
    field = crc.upper() if form == "upper" else form.format(crc)
    assert fields[0] == tag and field != crc
    path.write_bytes(" ".join([*fields[:-1], field]).encode("ascii") + b"\n" + payload)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == (
        f"{path}: line 1: CRC-32 field must be 8 lowercase hex digits, got {field!r}"
    )
