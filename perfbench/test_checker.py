"""The benchmark's correctness check passes real reports and fails broken ones."""

import json

import pytest

import checker
import workloads
from quasirep import cli

SEED, TRIALS = 5, 4


def _audit(frame, out):
    argv = ["audit", "--system", "quantum:2", "--frame-file", str(frame),
            "--trials", str(TRIALS), "--seed", str(SEED), "--out", str(out)]
    return cli.main(argv), out.read_bytes()


@pytest.fixture
def good_report(tmp_path):
    frame = tmp_path / "frame.json"
    workloads.write_frame_file(SEED, frame)
    code, report = _audit(frame, tmp_path / "report.json")
    assert checker.failures("audit", code, report, None, SEED, TRIALS) == []
    return report


def test_repeated_invocation_passes(tmp_path, good_report):
    frame = tmp_path / "frame.json"
    code, again = _audit(frame, tmp_path / "again.json")
    assert checker.failures("audit", code, again, good_report, SEED, TRIALS) == []


def test_corrupted_dual_is_classified_failed(tmp_path):
    frame = tmp_path / "frame.json"
    workloads.write_frame_file(SEED, frame)
    data = json.loads(frame.read_text())
    data["dual"][0], data["dual"][1] = data["dual"][1], data["dual"][0]
    frame.write_text(json.dumps(data))
    code, report = _audit(frame, tmp_path / "report.json")
    reasons = checker.failures("audit", code, report, None, SEED, TRIALS)
    assert "exit code 1" in reasons
    assert any(r.startswith("adequacy_residual") for r in reasons)


@pytest.mark.parametrize("field, value", [
    ("adequacy_residual", 2e-10),
    ("semifunctorial_residual", 2e-9),
    ("linearity_residual", float("nan")),
    ("decomposition_residual", 2e-8),
    ("linear", False),
    ("seed", SEED + 1),
    ("trials", TRIALS + 1),
])
def test_report_outside_acceptance_fails_despite_exit_0(good_report, field, value):
    data = json.loads(good_report)
    data[field] = value
    report = json.dumps(data).encode()
    assert checker.failures("audit", 0, report, None, SEED, TRIALS) != []


def test_report_bytes_must_repeat(good_report):
    assert checker.failures("audit", 0, good_report + b" ", good_report, SEED, TRIALS) != []


def test_coherence_residual_over_tolerance_fails(tmp_path):
    out = tmp_path / "coherence.json"
    code = cli.main(["coherence", "--dims", "2,2,2", "--trials", "3", "--seed", str(SEED),
                     "--out", str(out)])
    report = out.read_bytes()
    assert checker.failures("coherence", code, report, None, SEED, 3) == []
    data = json.loads(report)
    data["unitality_max_residual"] = 1e-11
    assert checker.failures("coherence", 0, json.dumps(data).encode(), None, SEED, 3) != []
