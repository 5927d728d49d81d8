"""Correctness check applied to every CLI invocation the benchmark makes.

An invocation passes when it exits with 0, every gating verdict in its
report is true, every residual is under its acceptance tolerance, the
report echoes the requested seed and trial count, and its bytes equal
those of the first invocation with the same argv.  The tolerances are the
acceptance criteria's fixed points, written out here rather than imported
so that a change to the program's own constants cannot loosen the check.
"""

from __future__ import annotations

import json

AUDIT_VERDICTS = ("semifunctorial", "empirically_adequate", "linear")
AUDIT_RESIDUALS = {
    "adequacy_residual": 1e-10,
    "semifunctorial_residual": 1e-9,
    "linearity_residual": 1e-9,
    "decomposition_residual": 1e-8,
}
COHERENCE_VERDICTS = ("epsilon_iso", "mu_iso")
COHERENCE_RESIDUALS = {
    "naturality_max_residual": 1e-12,
    "associativity_max_residual": 1e-12,
    "unitality_max_residual": 1e-12,
}


def failures(command: str, exit_code: int, report: bytes | None, reference: bytes | None,
             seed: int, trials: int) -> list[str]:
    """Reasons the invocation fails the check; empty when it passes.

    ``command`` is the CLI subcommand, ``"audit"`` or ``"coherence"``.
    ``reference`` holds the report bytes of an earlier invocation with the
    same argv, or ``None`` for the first one.
    """
    reasons = [f"exit code {exit_code}"] if exit_code != 0 else []
    if report is None:
        return reasons + ["no report written"]
    try:
        data = json.loads(report)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return reasons + [f"report is not JSON: {exc}"]
    if command == "audit":
        verdicts, residuals = AUDIT_VERDICTS, AUDIT_RESIDUALS
    else:
        verdicts, residuals = COHERENCE_VERDICTS, COHERENCE_RESIDUALS
    reasons += [f"{key} is not true" for key in verdicts if data.get(key) is not True]
    for key, tol in residuals.items():
        value = data.get(key)
        # NaN and non-numbers fail this comparison too
        if not (isinstance(value, (int, float)) and value <= tol):
            reasons.append(f"{key} = {value!r} exceeds {tol:g}")
    if data.get("seed") != seed:
        reasons.append(f"seed {data.get('seed')!r} != {seed}")
    if command == "audit" and data.get("trials") != trials:
        reasons.append(f"trials {data.get('trials')!r} != {trials}")
    if reference is not None and report != reference:
        reasons.append("report bytes differ from the first invocation")
    return reasons
