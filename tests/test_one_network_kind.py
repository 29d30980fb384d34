"""numkit builds one kind of network: relu hidden layers, a linear output.

Every action head on top of a network (the deterministic actors' clamped
tanh, SAC's squashed Gaussian) is written in ``agents``. This walks
``src/crashrl/numkit`` with ``ast`` and fails on any use of a name or an
attribute ``tanh`` (``np.tanh(x)``, ``tanh(x)``, ``f = np.tanh``), and on an
``MlpSpec`` field other than its three dimensions, such as an output
activation.
"""

import ast
from pathlib import Path

from crashrl.numkit import autodiff as ad

NUMKIT = Path(__file__).resolve().parents[1] / "src" / "crashrl" / "numkit"
SPEC_FIELDS = ["input_dim", "hidden_dims", "output_dim"]


def tanh_uses(path):
    """Lines in ``path`` that use a name or an attribute called ``tanh``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name == "tanh":
            found.add(node.lineno)
    return sorted(found)


def class_fields(path, cls):
    """The annotated fields of each class named ``cls`` in ``path``, in order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
    ]


def test_numkit_uses_no_tanh():
    offenders = [
        f"{path.relative_to(NUMKIT)}:{line}"
        for path in sorted(NUMKIT.rglob("*.py"))
        for line in tanh_uses(path)
    ]
    assert not offenders, "tanh used in numkit (heads belong to agents):\n" + "\n".join(
        offenders
    )


def test_mlp_spec_holds_only_its_dimensions():
    specs = [
        fields for path in sorted(NUMKIT.rglob("*.py")) for fields in class_fields(path, "MlpSpec")
    ]
    assert specs == [SPEC_FIELDS]
    assert ad.MlpRecord._fields == ("net", "inputs")


def test_the_scans_see_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "a = np.tanh(x)\n"
        "b = tanh(x)\n"
        "c = np.tanh\n"
        "d = x.tanh()\n"
        "e = np.arctanh(x)\n"
        "f = 'tanh'\n"
        "class MlpSpec:\n"
        "    input_dim: int\n"
        "    hidden_dims: tuple\n"
        "    output_dim: int\n"
        "    output_activation: str = 'tanh'\n"
    )
    assert tanh_uses(sample) == [2, 3, 4, 5]
    assert class_fields(sample, "MlpSpec") == [SPEC_FIELDS + ["output_activation"]]
