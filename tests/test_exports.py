"""Every exported name resolves, each command imports only its engine, and the
benchmark tracer still binds to the package.

Deleting a public or traced name must fail here, not only in a traced
benchmark run.  No module outside ``structure`` reads a slot's matrices.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasirep
from quasirep import cli
from quasirep.frames import Channel
from quasirep.structure import Representation

ROOT = Path(__file__).resolve().parents[1]
MODULES_WITH_ALL = ("linalg", "complexify", "frames", "kirkwood_dirac", "gpt", "structure")


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_module_all_resolves(name):
    module = importlib.import_module(f"quasirep.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_resolve():
    table = quasirep._EXPORTS
    assert set(table) == set(MODULES_WITH_ALL)
    assert quasirep.__all__ == [name for names in table.values() for name in names]
    for module_name, names in table.items():
        module = importlib.import_module(f"quasirep.{module_name}")
        for name in names:
            value = getattr(module, name)
            assert getattr(quasirep, name) is value
            # the table names the defining module, not one that re-imports the name
            assert getattr(value, "__module__", module.__name__) == module.__name__
    namespace = {}
    exec("from quasirep import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(quasirep.__all__)
    assert all(namespace[name] is getattr(quasirep, name) for name in quasirep.__all__)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        quasirep.missing


# Run in a fresh interpreter: prints the quasirep modules loaded after each step.
IMPORT_STEPS = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "quasirep")
steps = {}
import quasirep
steps["package"] = loaded()
import quasirep.cli
steps["cli"] = loaded()
assert quasirep.cli.main(["coherence", "--trials", "2", "--out", sys.argv[1]]) == 0
steps["coherence"] = loaded()
assert quasirep.cli.main(["kd-table", "--out", sys.argv[1]]) == 0
steps["kd-table"] = loaded()
assert quasirep.cli.main(["audit", "--trials", "2", "--out", sys.argv[1]]) == 0
steps["audit"] = loaded()
print(json.dumps(steps))
"""
RESOLVE_ALL = """
import quasirep
for name in quasirep.__all__:
    getattr(quasirep, name)
for name in quasirep._SUBMODULES:
    assert getattr(quasirep, name).__name__ == "quasirep." + name
# a name resolves on every read: a copy kept here would outlive a traced run
assert not set(vars(quasirep)) & set(quasirep.__all__)
assert set(quasirep.__all__) <= set(dir(quasirep))
print("resolved")
"""
ENGINE = ["frames", "gpt", "kirkwood_dirac", "structure"]
CLI_MODULES = ["quasirep"] + [f"quasirep.{m}" for m in ("cli", "complexify", "errors", "linalg")]


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_each_command_imports_only_its_engine(tmp_path):
    steps = json.loads(_python(IMPORT_STEPS, str(tmp_path / "report.json")))
    assert steps["package"] == ["quasirep"]
    assert steps["cli"] == CLI_MODULES
    assert steps["coherence"] == CLI_MODULES
    # a KD table of a generated state needs no representation
    assert steps["kd-table"] == sorted(CLI_MODULES + [f"quasirep.{m}" for m in ENGINE
                                                      if m != "structure"])
    assert steps["audit"] == sorted(CLI_MODULES + [f"quasirep.{m}" for m in ENGINE])


def test_every_name_resolves_after_a_bare_import():
    assert _python(RESOLVE_ALL) == "resolved"


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


def test_tracer_sees_the_engine_calls_of_the_cli(tmp_path):
    # the CLI imports the engine when a command runs, so it must read the
    # names the tracer has wrapped, not bind them before tracing starts
    tracing = _load_tracing()
    argv = ["audit", "--system", "quantum:2", "--frame-file",
            str(ROOT / "tests" / "golden" / "qubit_frame.json"),
            "--trials", "2", "--out", str(tmp_path / "report.json")]
    with tracing.Tracer() as tracer:
        assert cli.main(argv) == cli.EXIT_OK
    for name in ("gpt.make_system", "frames.frame_from_json", "structure.audit_representation"):
        assert tracer.calls[name] == 1, name


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
