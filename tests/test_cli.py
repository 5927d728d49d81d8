import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep.cli import EXIT_CHECK_FAILED, EXIT_CONSTRUCTION, EXIT_OK, main
from quasirep.frames import canonical_dual, frame_to_json, random_frame
from quasirep.linalg import cmat_to_json
from quasirep.structure import AUDIT_BLOCK_TRIALS

GOLDEN = Path(__file__).parent / "golden"


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

    def test_non_faithful_bases_error(self, tmp_path):
        code = main([
            "audit", "--system", "quantum:2", "--bases", "computational",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CONSTRUCTION


class TestGoldenReports:
    """Audit reports pinned byte for byte: batching must not change one digit.

    The files under ``tests/golden`` pin the factored tomography (the
    identity resolution and the state coordinates as products of small
    matrices, with no Kronecker design), which sets the last digits of the
    decomposition and discard residuals.  They were written on Python 3.11
    with numpy 2.4 and OpenBLAS; a different BLAS or LAPACK build may round
    residuals differently.
    """

    def test_qubit_frame_across_a_block_boundary(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "audit", "--system", "quantum:2", "--frame-file", str(GOLDEN / "qubit_frame.json"),
            "--trials", str(AUDIT_BLOCK_TRIALS + 3), "--seed", "1", "--out", str(out),
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
        assert report["naturality_max_residual"] <= 1e-12

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
        (["audit", "--system", "quantum:2", "--trials", "2", "--seed", "-1"], None, ""),
        (["kd-table", "--bases", "fourier", "--dim", "2", "--seed", "-1"], None, ""),
    ],
    ids=["kd-bases-file", "audit-bases-file", "systems-not-objects", "config-list", "dim-0",
         "tol-nan", "tol-negative", "duplicate-system", "qubit-frame-on-classical",
         "audit-negative-seed", "kd-negative-seed"],
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
    ],
    ids=["trials-null", "seed-list", "tol-object", "dims-number", "system-number",
         "frame-file-number", "out-list", "fractional-trials-seed", "trials-bool",
         "fractional-dims"],
)
def test_wrong_typed_config_value_is_construction_error(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == EXIT_CONSTRUCTION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_integral_config_values_are_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps({"dims": ["2", 3.0], "trials": 2.0, "seed": "4", "out": str(out)}))
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
