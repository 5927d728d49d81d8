import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep.cli import EXIT_CHECK_FAILED, EXIT_CONSTRUCTION, EXIT_OK, main
from quasirep.complexify import COHERENCE_RESIDUAL_ATOL
from quasirep.frames import canonical_dual, frame_to_json, random_frame
from quasirep.gpt import MAX_QUANTUM_DIM
from quasirep.linalg import cmat_to_json

GOLDEN = Path(__file__).parent / "golden"
QUBIT_FRAME = json.loads((GOLDEN / "qubit_frame.json").read_text())
HADAMARD_BASES = {"basis_a": cmat_to_json(np.eye(2)),
                  "basis_b": cmat_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))}


def fourier_bases(d):
    """The computational and Fourier bases of dimension ``d`` as a bases file."""
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    return {"basis_a": cmat_to_json(np.eye(d)), "basis_b": cmat_to_json(fourier)}


@pytest.fixture
def ground_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(cmat_to_json(np.array([[1, 0], [0, 0]], dtype=complex))))
    return str(path)


def read_csv(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()]


class TestKdTable:
    def test_mub_ground_state(self, tmp_path, ground_state_file):
        out = tmp_path / "table.csv"
        code = main([
            "kd-table", "--bases", "hadamard", "--state", ground_state_file,
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["a_label", "b_label", "re", "im"]
        values = sorted(float(r[2]) for r in rows[1:5])
        assert values == pytest.approx([0.0, 0.0, 0.5, 0.5])
        assert rows[5][0] == "sum"
        assert float(rows[5][2]) == pytest.approx(1.0)
        assert float(rows[5][3]) == pytest.approx(0.0)

    def test_missing_input_file(self, tmp_path):
        code = main([
            "kd-table", "--bases", "hadamard",
            "--state", str(tmp_path / "nope.json"),
        ])
        assert code == EXIT_CONSTRUCTION

    def test_seeded_random_state_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main([
                "kd-table", "--bases", "fourier", "--dim", "3",
                "--seed", "17", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_frame_flag_rejects_non_faithful(self, tmp_path, ground_state_file):
        code = main([
            "kd-table", "--bases", "computational", "--state", ground_state_file,
            "--frame", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == EXIT_CONSTRUCTION

    def test_frame_flag_matches_distribution(self, tmp_path, ground_state_file):
        plain = tmp_path / "plain.csv"
        framed = tmp_path / "framed.csv"
        main(["kd-table", "--bases", "hadamard", "--state", ground_state_file,
              "--out", str(plain)])
        main(["kd-table", "--bases", "hadamard", "--state", ground_state_file,
              "--frame", "--out", str(framed)])
        assert plain.read_bytes() == framed.read_bytes()

    def test_config_file(self, tmp_path, ground_state_file):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg.write_text(json.dumps({
            "bases": "hadamard", "state": ground_state_file, "out": str(out),
        }))
        assert main(["kd-table", "--config", str(cfg)]) == EXIT_OK
        assert out.exists()

    def test_malformed_state_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["kd-table", "--bases", "hadamard", "--state", str(bad)])
        assert code == EXIT_CONSTRUCTION


class TestAudit:
    def test_kd_qubit_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "audit", "--system", "quantum:2", "--bases", "hadamard",
            "--trials", "5", "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["functorial"] is True
        assert report["discard_preserving"] is True

    def test_tol_gates_the_decomposition_residual(self, tmp_path):
        # the gate passes at the reported residual and fails just below it
        argv = ["audit", "--system", "quantum:3", "--bases", "fourier", "--trials", "4"]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        residual = json.loads(out.read_text())["decomposition_residual"]
        assert residual > 0
        assert main(argv + ["--tol", repr(residual), "--out", str(out)]) == EXIT_OK
        below = repr(float(np.nextafter(residual, 0)))
        assert main(argv + ["--tol", below, "--out", str(out)]) == EXIT_CHECK_FAILED
        assert json.loads(out.read_text())["tol"] == float(below)

    def test_matrix_unit_frame_reports_discard_without_gating(self, tmp_path):
        elements = []
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1
                elements.append(e)
        from quasirep.frames import Frame

        pair = canonical_dual(Frame(elements))
        frame_file = tmp_path / "frame.json"
        frame_file.write_text(json.dumps(frame_to_json(pair.frame, dual=pair.dual)))
        out = tmp_path / "report.json"
        code = main([
            "audit", "--system", "quantum:2", "--frame-file", str(frame_file),
            "--trials", "5", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["discard_preserving"] is False
        assert report["empirically_adequate"] is True

    def test_corrupted_dual_fails_checks(self, tmp_path, rng):
        pair = canonical_dual(random_frame(2, 4, rng))
        corrupted = [e + 0.2 * rng.standard_normal((2, 2)) for e in pair.dual.elements]
        from quasirep.frames import Frame

        frame_file = tmp_path / "frame.json"
        frame_file.write_text(json.dumps(
            frame_to_json(pair.frame, dual=Frame(corrupted, labels=pair.labels))
        ))
        code = main([
            "audit", "--system", "quantum:2", "--frame-file", str(frame_file),
            "--trials", "5", "--seed", "0", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CHECK_FAILED

    def test_overflowing_dual_reports_inf_not_zero(self, tmp_path):
        # an overflow makes the semi-functoriality residual NaN; a plain max()
        # dropped it and reported 0.0 with a passing verdict
        pair = canonical_dual(random_frame(2, 8, np.random.default_rng(3)))
        record = frame_to_json(pair.frame, dual=pair.dual)
        record["dual"][0]["re"][0] = 1e300
        frame_file = tmp_path / "frame.json"
        frame_file.write_text(json.dumps(record))
        out = tmp_path / "report.json"
        code = main([
            "audit", "--system", "quantum:2", "--frame-file", str(frame_file),
            "--trials", "3", "--out", str(out),
        ])
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out.read_text())
        assert report["semifunctorial"] is False
        assert report["semifunctorial_residual"] == float("inf")

    def test_deterministic_reports(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main([
                "audit", "--system", "quantum:2", "--bases", "fourier",
                "--trials", "4", "--seed", "9", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_two_system_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg.write_text(json.dumps({
            "systems": [
                {"system": "quantum:2", "bases": "fourier"},
                {"system": "quantum:3", "bases": "fourier"},
            ],
            "trials": 3,
            "seed": 1,
            "out": str(out),
        }))
        assert main(["audit", "--config", str(cfg)]) == EXIT_OK
        assert json.loads(out.read_text())["dim_check"] is True

    def test_bad_system_spec(self):
        assert main(["audit", "--system", "qubit:two"]) == EXIT_CONSTRUCTION

    def test_classical_system(self, tmp_path):
        out = tmp_path / "classical.json"
        code = main([
            "audit", "--system", "classical:4", "--trials", "2",
            "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["functorial"] and report["discard_preserving"]

    def test_quantum_5_fourier(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "audit", "--system", "quantum:5", "--bases", "fourier", "--trials", "3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["dim_check"] is True

    def test_quantum_fourier_at_the_dimension_cap(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "audit", "--system", f"quantum:{MAX_QUANTUM_DIM}", "--bases", "fourier",
            "--trials", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        core = ("semifunctorial", "empirically_adequate", "linear", "functorial", "dim_check")
        assert all(report[key] is True for key in core)

    def test_non_faithful_bases_error(self, tmp_path):
        code = main([
            "audit", "--system", "quantum:2", "--bases", "computational",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CONSTRUCTION


class TestGoldenReports:
    r"""Audit and coherence reports pinned byte for byte: batching must not change one digit.

    The audit reports under ``tests/golden`` pin the sampling contract, down
    to which role stream, and which row of it, yields each channel's
    ``(2, d_out**2 * d_in, d_in)`` normal block, state, effect and weight,
    which sets the last digits of the semi-functoriality, adequacy,
    linearity and decomposition residuals; and the factored tomography (the identity
    resolution and the state coordinates as products of small matrices, with
    no Kronecker design), which also sets those of the discard residual.  The
    coherence reports pin the row that each coherence trial reads from the one stream.
    They were written on Python 3.11 with numpy 2.4 and OpenBLAS; a different
    BLAS or LAPACK build may round residuals differently.

    A declared change of the audit's sampling contract or of its tomography
    re-captures the two audit goldens with these commands, run in bash from
    the repository root::

        quasirep audit --system quantum:2 --frame-file tests/golden/qubit_frame.json \
            --trials 67 --seed 1 --out tests/golden/qubit_frame_67.report.json
        quasirep audit --out tests/golden/mixed_5.report.json --config <(echo '{"systems":
            [{"system": "quantum:2"}, {"system": "quantum:3"}, {"system": "classical:2"}],
            "trials": 5, "seed": 7}')
    """

    def test_qubit_frame_across_a_block_boundary(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "audit", "--system", "quantum:2", "--frame-file", str(GOLDEN / "qubit_frame.json"),
            "--trials", "67", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "qubit_frame_67.report.json").read_bytes()

    def test_mixed_quantum_and_classical_systems(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg.write_text(json.dumps({
            "systems": [{"system": "quantum:2"}, {"system": "quantum:3"}, {"system": "classical:2"}],
            "trials": 5,
            "seed": 7,
        }))
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "mixed_5.report.json").read_bytes()

    @pytest.mark.parametrize(
        "dims, trials, seed, golden",
        [
            # a full block of 128 trials and a partial one: pins the per-trial row layout
            ("4,4,4", 133, "7", "coherence_444_133.report.json"),
            ("1,1,1", 5, "3", "coherence_111_5.report.json"),
        ],
        ids=["444-three-blocks", "111-one-partial-block"],
    )
    def test_coherence(self, tmp_path, dims, trials, seed, golden):
        out = tmp_path / "report.json"
        code = main(["coherence", "--dims", dims, "--trials", str(trials), "--seed", seed,
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestCoherence:
    def test_passes_and_writes_json(self, tmp_path):
        out = tmp_path / "coh.json"
        code = main([
            "coherence", "--dims", "2,3,2", "--trials", "20", "--seed", "5",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["epsilon_iso"] and report["mu_iso"]
        assert report["naturality_max_residual"] <= COHERENCE_RESIDUAL_ATOL

    def test_deterministic(self, tmp_path):
        blobs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            main(["coherence", "--dims", "2,2,2", "--seed", "13", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "argv, content, named",
    [
        (["kd-table", "--bases-file"], {"basis_a": cmat_to_json(np.eye(2))}, ""),
        (["audit", "--bases-file"], {"basis_a": cmat_to_json(np.eye(2))}, ""),
        (["audit", "--config"], {"systems": ["quantum:2"]}, ""),
        (["audit", "--config"], [1, 2], ""),
        (["kd-table", "--bases", "fourier", "--dim", "0"], None, ""),
        (["audit", "--tol", "nan"], None, ""),
        (["audit", "--tol", "-1"], None, ""),
        (["audit", "--config"], {"systems": [{"system": "quantum:2", "bases": "hadamard"},
                                             {"system": "quantum:2"}]}, "quantum-2"),
        (["audit", "--system", "classical:2", "--frame-file", str(GOLDEN / "qubit_frame.json")],
         None, "classical-2"),
        # the qubit frame's d**2 = 4 coordinates match classical:4, so only the kind can reject it
        (["audit", "--system", "classical:4", "--frame-file", str(GOLDEN / "qubit_frame.json")],
         None, "classical-4"),
        (["audit", "--system", "quantum:2", "--trials", "2", "--seed", "-1"], None, "seed"),
        (["kd-table", "--bases", "fourier", "--dim", "2", "--seed", "-1"], None, "seed"),
        (["coherence", "--trials", "2", "--seed", "-1"], None, "seed"),
        (["kd-table", "--bases", "hadamard", "--state"], cmat_to_json(np.ones((1, 4))), "(1, 4)"),
        (["kd-table", "--bases", "hadamard", "--frame", "--state"], cmat_to_json(np.ones((1, 4))),
         "(1, 4)"),
        (["kd-table", "--bases", "hadamard", "--state"], cmat_to_json(np.eye(3) / 3), "(3, 3)"),
        (["kd-table", "--bases", "hadamard", "--frame", "--state"], cmat_to_json(np.eye(3) / 3),
         "(3, 3)"),
        (["audit", "--system", "classical:65", "--trials", "1"], None, "64"),
        (["coherence", "--trials", "0"], None, ">= 1"),
        (["coherence", "--trials", "-5"], None, ">= 1"),
        (["coherence", "--dims", "2,65,2", "--trials", "1"], None, "64"),
        (["kd-table", "--bases", "fourier", "--dim", "9"], None, "8"),
        # JSON admits Infinity, which int() rejects with an OverflowError
        (["kd-table", "--bases-file"],
         {**HADAMARD_BASES, "basis_b": {**HADAMARD_BASES["basis_b"], "rows": float("inf")}},
         "malformed matrix"),
        (["audit", "--trials", "2", "--bases-file"],
         {**HADAMARD_BASES, "basis_a": {**HADAMARD_BASES["basis_a"], "cols": float("inf")}},
         "malformed matrix"),
        (["kd-table", "--bases", "hadamard", "--state"],
         {**cmat_to_json(np.eye(2) / 2), "rows": float("inf")}, "malformed matrix"),
        (["audit", "--trials", "2", "--frame-file"],
         {**QUBIT_FRAME, "elements": [{**QUBIT_FRAME["elements"][0], "rows": float("inf")},
                                      *QUBIT_FRAME["elements"][1:]]}, "malformed matrix"),
        (["audit", "--trials", "2", "--frame-file"], {**QUBIT_FRAME, "d": float("inf")},
         "malformed frame"),
        (["audit", "--trials", "2", "--frame-file"], {**QUBIT_FRAME, "dual": 5}, "malformed frame"),
        # an infinite imaginary part must not warn on its way to the finiteness check
        (["kd-table", "--bases-file"],
         {**HADAMARD_BASES,
          "basis_a": {**HADAMARD_BASES["basis_a"], "im": [float("inf"), 0, 0, 0]}},
         "finite"),
        # JSON values of the wrong type are rejected, not converted
        (["kd-table", "--dim", "2", "--state"],
         {"rows": "2", "cols": 2.0, "re": ["1", 0, 0, False], "im": [0, 0, 0, 0]},
         "malformed matrix"),
        (["kd-table", "--bases", "hadamard", "--state"],
         {**cmat_to_json(np.eye(2) / 2), "rows": "2"}, "malformed matrix"),
        (["kd-table", "--bases", "hadamard", "--state"],
         {**cmat_to_json(np.eye(2) / 2), "cols": 2.0}, "malformed matrix"),
        (["kd-table", "--bases", "hadamard", "--state"],
         {**cmat_to_json(np.eye(2) / 2), "re": ["0.5", 0, 0, 0.5]}, "malformed matrix"),
        (["kd-table", "--bases", "hadamard", "--state"],
         {**cmat_to_json(np.eye(2) / 2), "im": [0, 0, False, 0]}, "malformed matrix"),
        (["audit", "--trials", "2", "--frame-file"],
         {**QUBIT_FRAME, "labels": [None, True, {"a": 1}, [1], 0, 1, 2, 3]}, "malformed frame"),
        (["audit", "--trials", "2", "--frame-file"], {**QUBIT_FRAME, "labels": "01234567"},
         "malformed frame"),
        (["audit", "--trials", "2", "--frame-file"], {**QUBIT_FRAME, "d": "2"}, "malformed frame"),
        (["audit", "--trials", "2", "--frame-file"],
         {**QUBIT_FRAME, "elements": [{**QUBIT_FRAME["elements"][0], "rows": "2"},
                                      *QUBIT_FRAME["elements"][1:]]}, "malformed matrix"),
        (["audit", "--trials", "2", "--frame-file"],
         {**QUBIT_FRAME, "dual": [{**QUBIT_FRAME["dual"][0], "re": [True, 0, 0, 0]},
                                  *QUBIT_FRAME["dual"][1:]]}, "malformed matrix"),
        # a report or KD table names each element by its label
        (["audit", "--system", "quantum:2", "--frame-file"], {**QUBIT_FRAME, "labels": ["a"] * 8},
         "labels must be distinct"),
        # a system spec names a theory of gpt's table and a size within its bound
        (["audit", "--system", "qubit:2"], None, "'qubit'; known kinds: quantum, classical"),
        (["audit", "--system", "boxworld:2"], None, "'boxworld'"),
        (["audit", "--system", "quantum:0"], None, ">= 1"),
        (["audit", "--system", "quantum:9"], None, "d <= 8"),
        (["audit", "--system", "classical:0"], None, ">= 1"),
        # a bases file meets the size cap and the audited system's size before any frame
        (["kd-table", "--frame", "--bases-file"], fourier_bases(12), "<= 8, got 12"),
        (["audit", "--system", "quantum:2", "--trials", "2", "--bases-file"], fourier_bases(9),
         "dim 9, system 'quantum-2' has dim 2"),
    ],
    ids=["kd-bases-file", "audit-bases-file", "systems-not-objects", "config-list", "dim-0",
         "tol-nan", "tol-negative", "duplicate-system", "qubit-frame-on-classical",
         "qubit-frame-on-classical-4", "audit-negative-seed", "kd-negative-seed",
         "coherence-negative-seed", "kd-row-state", "kd-frame-row-state",
         "kd-qutrit-state-on-qubit", "kd-frame-qutrit-state-on-qubit",
         "classical-65", "coherence-trials-zero", "coherence-trials-negative", "coherence-dims-65",
         "kd-dim-9", "kd-bases-file-infinite-rows", "audit-bases-file-infinite-cols",
         "kd-state-infinite-rows", "frame-element-infinite-rows", "frame-infinite-d",
         "frame-dual-number", "kd-bases-file-infinite-imaginary-part",
         "kd-state-wrong-types", "kd-state-string-rows", "kd-state-float-cols",
         "kd-state-string-entry", "kd-state-boolean-entry", "frame-non-string-labels",
         "frame-labels-string", "frame-string-d", "frame-element-string-rows",
         "frame-dual-boolean-entry", "frame-repeated-labels", "unknown-kind-qubit",
         "unknown-kind-boxworld", "quantum-0", "quantum-9", "classical-0",
         "kd-bases-file-dim-12", "audit-bases-file-dim-9-on-qubit"],
)
def test_malformed_input_is_construction_error(tmp_path, capsys, argv, content, named):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        argv = argv + [str(path)]
    assert main(argv) == EXIT_CONSTRUCTION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("audit", {"trials": None}),
        ("audit", {"seed": [1]}),
        ("audit", {"tol": {}}),
        ("coherence", {"dims": 5}),
        ("audit", {"systems": [{"system": 5}]}),
        ("audit", {"systems": [{"system": "quantum:2", "frame-file": 5}]}),
        ("coherence", {"out": ["report.json"]}),
        ("audit", {"trials": 2.7, "seed": 1.9}),
        ("audit", {"trials": True}),
        ("coherence", {"dims": [2.5, 3]}),
        ("coherence", {"dims": "2,3,2,9"}),
    ],
    ids=["trials-null", "seed-list", "tol-object", "dims-number", "system-number",
         "frame-file-number", "out-list", "fractional-trials-seed", "trials-bool",
         "fractional-dims", "dims-four-entries"],
)
def test_wrong_typed_config_value_is_construction_error(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == EXIT_CONSTRUCTION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first generator the CLI builds, not at import
    code = "import sys, numpy, quasirep.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_integral_config_values_are_accepted(tmp_path, capsys):
    # config numbers follow the matrix records: only a JSON integer is an
    # integer, and nothing is converted; a string of dims is still parsed
    path = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps({"dims": ["2", 3.0], "trials": 2.0, "seed": "4", "out": str(out)}))
    assert main(["coherence", "--config", str(path)]) == EXIT_CONSTRUCTION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
    for dims in ([2, 3], "2,3,2"):
        path.write_text(json.dumps({"dims": dims, "trials": 2, "seed": 4, "out": str(out)}))
        assert main(["coherence", "--config", str(path)]) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 4


_NOT_A_NUMBER = st.one_of(
    st.none(),
    st.lists(st.none() | st.text(alphabet="abc", min_size=1, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.text(alphabet="abc:,", min_size=1, max_size=4),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("audit", "seed"), ("audit", "trials"), ("audit", "tol"),
                     ("coherence", "seed"), ("coherence", "trials"), ("coherence", "dims"),
                     ("kd-table", "dim"), ("kd-table", "seed")]),
    _NOT_A_NUMBER,
)
def test_fuzzed_config_values_exit_2(tmp_path_factory, target, value):
    command, key = target
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main([command, "--config", str(path)]) == EXIT_CONSTRUCTION
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _coherence_value(number):
    """A ``coherence`` config value: ``number`` or any other JSON type, NaN included."""
    scalar = st.one_of(st.none(), st.booleans(), number, number.map(str),
                       st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                       st.text(alphabet="ab-., e", max_size=3))
    return st.one_of(
        scalar,
        st.lists(scalar, max_size=4),
        st.lists(number, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    )


# every number is capped so that an accepted config runs at most 50 trials on dims of at most 6
_COHERENCE_CONFIG = st.fixed_dictionaries({}, optional={
    "dims": _coherence_value(st.integers(-2, 6) | st.floats(-2, 6) | st.just(65)),
    "trials": _coherence_value(st.integers(-3, 50) | st.floats(-3, 50)),
    "seed": _coherence_value(st.integers(-3, 2**70) | st.floats(-3, 1e30)),
})


@settings(max_examples=60, deadline=None)
@given(_COHERENCE_CONFIG)
def test_fuzzed_coherence_config_exits_0_or_2(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["coherence", "--config", str(path)])
    assert code in (EXIT_OK, EXIT_CONSTRUCTION)
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _json_paths(node, prefix=()):
    """Every key path into a JSON document: dict keys and list indices, nested ones too."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _replaced(document, replacements):
    """A deep copy of ``document`` with the value at each path replaced; a path
    whose parent an earlier replacement removed is skipped."""
    document = json.loads(json.dumps(document))
    for path, value in replacements:
        node = document
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    return document


_SCALAR_FUZZ = st.one_of(
    st.none(), st.booleans(), st.sampled_from([float("inf"), -float("inf"), float("nan")]),
    st.text(alphabet="ab1.", max_size=3),
)
_FUZZ_VALUE = st.one_of(
    _SCALAR_FUZZ,
    st.lists(_SCALAR_FUZZ, max_size=3),
    st.dictionaries(st.sampled_from(["rows", "cols", "re", "im", "d", "system", "bases", "x"]),
                    _SCALAR_FUZZ, max_size=2),
)
# each input file with the command that reads it: the file path is appended
_FUZZ_TARGETS = [
    (QUBIT_FRAME, ["audit", "--system", "quantum:2", "--trials", "2", "--frame-file"]),
    (HADAMARD_BASES, ["audit", "--system", "quantum:2", "--trials", "2", "--bases-file"]),
    (HADAMARD_BASES, ["kd-table", "--bases-file"]),
    (HADAMARD_BASES, ["kd-table", "--frame", "--bases-file"]),
    (cmat_to_json(np.eye(2) / 2), ["kd-table", "--bases", "hadamard", "--state"]),
    ({"systems": [{"system": "quantum:2", "bases": "hadamard"},
                  {"system": "classical:2"}], "trials": 2, "seed": 1}, ["audit", "--config"]),
]


@st.composite
def _fuzzed_input(draw):
    document, argv = draw(st.sampled_from(_FUZZ_TARGETS))
    paths = st.sampled_from(list(_json_paths(document)))
    replacements = draw(st.lists(st.tuples(paths, _FUZZ_VALUE), min_size=1, max_size=2))
    return _replaced(document, replacements), argv


@settings(max_examples=150, deadline=None)
@given(_fuzzed_input())
def test_fuzzed_input_files_exit_0_1_or_2(tmp_path_factory, case):
    document, argv = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "input.json"
    path.write_text(json.dumps(document))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv + [str(path), "--out", str(tmp / "out")])
    if code == EXIT_CONSTRUCTION:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (EXIT_OK, EXIT_CHECK_FAILED) and err.getvalue() == ""
