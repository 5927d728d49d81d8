"""Every exported name resolves, and the benchmark tracer still binds to the package.

Deleting a public or traced name must fail here, not only in a traced
benchmark run.  No module outside ``structure`` reads a slot's matrices.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import quasirep
from quasirep.frames import Channel
from quasirep.structure import Representation

ROOT = Path(__file__).resolve().parents[1]
MODULES_WITH_ALL = ("linalg", "complexify", "frames", "kirkwood_dirac", "gpt", "structure")


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_module_all_resolves(name):
    module = importlib.import_module(f"quasirep.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(quasirep.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"quasirep.{node.module}")
        for alias in node.names:
            assert getattr(module, alias.name) is getattr(quasirep, alias.name)


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    owners = [quasirep, *tracing.MODULES.values(), Channel, Representation]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer() as tracer:
        quasirep.frames.identity_channel(2)
        quasirep.linalg.numerical_rank([[1.0]])
    assert tracer.calls["frames.Channel"] == 1
    assert tracer.calls["linalg.numerical_rank"] == 1
    assert [dict(vars(owner)) for owner in owners] == before


def test_slot_matrices_are_read_only_in_structure():
    # every other module reads a representation through Representation.apply,
    # so a second read path such as ``slot.rep @ x`` cannot come back
    readers = []
    for path in sorted((ROOT / "src" / "quasirep").glob("*.py")):
        if path.name != "structure.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr in ("rep", "recon")]
    assert readers == []


def _theory_tests(tree):
    """Lines that read a theory attribute or compare with a theory name."""
    names = {"quantum", "classical"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("kind", "is_quantum"):
            yield node.lineno
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            # an ``in`` test against a tuple, list or set counts too
            operands += [elt for op in operands if isinstance(op, (ast.Tuple, ast.List, ast.Set))
                         for elt in op.elts]
            if any(isinstance(op, ast.Constant) and op.value in names for op in operands):
                yield node.lineno


def test_theory_names_are_known_only_to_gpt():
    # a new theory is one constructor in gpt's table, not a branch in every module
    found = []
    for path in sorted((ROOT / "src" / "quasirep").glob("*.py")):
        if path.name != "gpt.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{line}" for line in _theory_tests(tree)]
    assert found == []
