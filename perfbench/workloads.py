"""The benchmark's workloads: seeded inputs, the CLI argv and the set-up step.

Every input the CLI receives is generated here from the benchmark seed
through quasirep's public API; the CLI itself only sees argv and files.
Set-up is the part of an audit that precedes ``audit_representation``:
reading the inputs, building the systems, the frame/dual pairs and the
``Representation``, all with numpy already imported.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Set-up calls go through the module attributes, so that the traced run,
# which replaces those attributes, sees them.
from quasirep import frames, gpt, kirkwood_dirac, structure

# audit-multi: the ROADMAP's headline multi-system audit.
MULTI_SYSTEMS = (("quantum:2", "hadamard"), ("quantum:3", "fourier"), ("quantum:4", "fourier"))
MULTI_TRIALS = 20
# audit-qubit-frame: an overcomplete qubit frame (8 > d**2 = 4 elements).
FRAME_SIZE = 8
FRAME_TRIALS = 400
# coherence: complexify only.
COHERENCE_DIMS = "4,4,4"
COHERENCE_TRIALS = 2000
# d-sweep of the traced run: one KD/fourier system per dimension.
SWEEP_DIMS = (1, 2, 3, 4)
SWEEP_TRIALS = 20

IMPORT_PROBE = (
    "import time, numpy; t = time.perf_counter(); import quasirep.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Prepared:
    """One workload instance: what the CLI is called with and how it is set up."""

    argv: list[str]                # starts with the subcommand: "audit" or "coherence"
    out: Path                      # the report file named by ``--out``
    trials: int
    seed: int
    systems: int                   # audited systems (0 for coherence)
    build: Callable[[], object] | None  # the in-process set-up, if any


def write_multi_config(seed: int, path: Path) -> None:
    config = {
        "systems": [{"system": s, "bases": b} for s, b in MULTI_SYSTEMS],
        "trials": MULTI_TRIALS,
        "seed": seed,
    }
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def write_frame_file(seed: int, path: Path) -> None:
    """An overcomplete random qubit frame stored with its canonical dual."""
    pair = frames.canonical_dual(frames.random_frame(2, FRAME_SIZE, np.random.default_rng(seed)))
    record = frames.frame_to_json(pair.frame, pair.dual)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _multi_setup(config_path: Path, seed: int) -> Callable[[], structure.Representation]:
    def setup() -> structure.Representation:
        slots = {}
        for entry in _load(config_path)["systems"]:
            dim = int(entry["system"].partition(":")[2])
            system = gpt.make_system("quantum", dim, seed=seed)
            bases = kirkwood_dirac.preset_bases(entry["bases"], system.dim)
            pair = kirkwood_dirac.kd_frame_pair(bases)
            slots[system.label] = structure.SystemSlot.from_pair(pair)
        return structure.Representation(slots, validate=False)

    return setup


def _frame_setup(frame_path: Path, seed: int) -> Callable[[], structure.Representation]:
    def setup() -> structure.Representation:
        system = gpt.make_system("quantum", 2, seed=seed)
        loaded = frames.frame_from_json(_load(frame_path))
        frame = loaded.frame if isinstance(loaded, frames.DualPair) else loaded
        # the stored dual is the canonical one; rebuilding it keeps dual
        # construction inside the measured set-up
        pair = frames.canonical_dual(frame)
        slot = structure.SystemSlot.from_pair(pair)
        return structure.Representation({system.label: slot}, validate=False)

    return setup


def import_probe() -> float:
    """Seconds to import ``quasirep.cli`` in a fresh interpreter, numpy preloaded.

    Coherence builds nothing before its checks, so importing the package is
    the one set-up cost the command has ahead of them.
    """
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], check=True,
        capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Generate the workload's inputs under ``workdir`` from ``seed``."""
    out = workdir / f"{workload}.report.json"
    if workload == "audit-multi":
        config = workdir / "multi.config.json"
        write_multi_config(seed, config)
        return Prepared(["audit", "--config", str(config), "--out", str(out)],
                        out, MULTI_TRIALS, seed, len(MULTI_SYSTEMS), _multi_setup(config, seed))
    if workload == "audit-qubit-frame":
        frame = workdir / "qubit.frame.json"
        write_frame_file(seed, frame)
        argv = ["audit", "--system", "quantum:2", "--frame-file", str(frame),
                "--trials", str(FRAME_TRIALS), "--seed", str(seed), "--out", str(out)]
        return Prepared(argv, out, FRAME_TRIALS, seed, 1, _frame_setup(frame, seed))
    if workload == "coherence":
        argv = ["coherence", "--dims", COHERENCE_DIMS, "--trials", str(COHERENCE_TRIALS),
                "--seed", str(seed), "--out", str(out)]
        return Prepared(argv, out, COHERENCE_TRIALS, seed, 0, None)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_instance(dim: int, seed: int, workdir: Path) -> Prepared:
    out = workdir / f"sweep-{dim}.report.json"
    argv = ["audit", "--system", f"quantum:{dim}", "--bases", "fourier",
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--out", str(out)]
    return Prepared(argv, out, SWEEP_TRIALS, seed, 1, None)


def time_setup(prepared: Prepared, seconds: float, minimum: int) -> list[float]:
    """Wall times of repeated in-process set-ups, for ``seconds`` and at least ``minimum``."""
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < minimum or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        prepared.build()
        times.append(time.perf_counter() - t0)
    return times
