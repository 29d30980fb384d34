"""Only ``agents/config.py`` may tell the four algorithms apart by name.

Every other module reads the config's derived settings (``n_actors``,
``n_critics``, ``smoothing``, ``actor_delay``, ``stochastic``,
``coupled_critics``), so the targets, the gradient phases and the agent
follow one rule. This walks the package source with ``ast`` and fails on
any ``==``, ``!=``, ``in`` or ``not in`` comparison with an algorithm name.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from crashrl.agents import ALGOS, Agent, AgentConfig, config_hash

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crashrl"
RULE_HOME = PACKAGE / "agents" / "config.py"
NAME_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _names_in(node):
    """Algorithm-name string constants in an operand, or in a literal collection."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [
        item.value
        for item in items
        if isinstance(item, ast.Constant) and item.value in ALGOS
    ]


def algorithm_name_comparisons(path):
    """(line, names) for each comparison in path that involves an algorithm name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, NAME_OPS) for op in node.ops):
            continue
        names = [n for operand in [node.left, *node.comparators] for n in _names_in(operand)]
        if names:
            found.append((node.lineno, names))
    return sorted(found)


def test_only_the_config_compares_algorithm_names():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}: {names}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != RULE_HOME
        for line, names in algorithm_name_comparisons(path)
    ]
    assert not offenders, "algorithm names compared outside agents/config.py:\n" + "\n".join(
        offenders
    )


def test_the_scan_sees_every_form_of_comparison(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        'a = algo == "sac"\n'
        'b = "darc" != algo\n'
        'c = algo in ("td3", "darc")\n'
        'd = algo not in ["ddpg"]\n'
        'e = algo == "adam"\n'
        'f = algo is None\n'
    )
    assert [line for line, _ in algorithm_name_comparisons(sample)] == [1, 2, 3, 4]
    assert algorithm_name_comparisons(RULE_HOME), "the config is where the names live"


SETTINGS = {
    # algo: (n_actors, n_critics, smoothing, actor_delay, stochastic, coupled_critics)
    "ddpg": (1, 1, False, 1, False, False),
    "td3": (1, 2, True, 5, False, False),
    "sac": (1, 2, False, 1, True, False),
    "darc": (2, 2, True, 5, False, True),
}


@pytest.mark.parametrize("algo", ALGOS)
def test_derived_settings(algo):
    cfg = AgentConfig(algo=algo, policy_delay=5)
    got = (
        cfg.n_actors, cfg.n_critics, cfg.smoothing,
        cfg.actor_delay, cfg.stochastic, cfg.coupled_critics,
    )
    assert got == SETTINGS[algo]
    agent = Agent(cfg, obs_dim=3, seed=0)
    assert len(agent.actors) == cfg.n_actors
    assert len(agent.critics) == len(agent.target_critics) == cfg.n_critics
    if cfg.stochastic:
        assert agent.target_actors is None
    else:
        assert len(agent.target_actors) == cfg.n_actors


# config_hash of each algorithm's default config, from before the settings existed.
DEFAULT_HASHES = {
    "ddpg": "56a4f6640918821b",
    "td3": "77d3910c3e1722c6",
    "sac": "ec148077e9cfe61a",
    "darc": "55ed267b413acf19",
}


@pytest.mark.parametrize("algo", ALGOS)
def test_derived_settings_leave_fields_and_hash_alone(algo):
    fields = {f.name for f in dataclasses.fields(AgentConfig)}
    assert not fields & {
        "n_actors", "n_critics", "smoothing", "actor_delay", "stochastic", "coupled_critics",
    }
    assert config_hash(AgentConfig(algo=algo)) == DEFAULT_HASHES[algo]
