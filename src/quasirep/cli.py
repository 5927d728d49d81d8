"""Command-line front end: KD tables, representation audits, coherence reports.

Exit codes: 0 when every gating check passes, 1 when a property check fails,
2 on construction or parse errors.  All randomness is seeded, and identical
configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# ``coherence`` needs only complexify: the frame/GPT/audit engine is imported
# inside the commands that run it, so that its modules are not loaded there.
from .complexify import monoidal_coherence
from .errors import DimensionError, QuasirepError
from .linalg import MAX_QUANTUM_DIM, cmat_from_json

if TYPE_CHECKING:
    from .kirkwood_dirac import KdBases
    from .structure import SystemSlot

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONSTRUCTION = 2


def _fmt(x: float) -> str:
    """17 significant digits, '.' decimal: floats round-trip exactly."""
    return f"{x:.17g}"


def _load_json(path: str) -> dict:
    if not isinstance(path, str):
        raise ValueError(f"expected a file path, got {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    elif not isinstance(path, str):
        raise ValueError(f"expected an output path, got {path!r}")
    else:
        Path(path).write_text(text, encoding="utf-8")


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file values with command-line overrides on top."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(_load_json(args.config))
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        cfg[key.replace("_", "-")] = value
    return cfg


def _coerce(kind: type, value, name: str):
    """``kind(value)`` of a JSON integer, or for ``float`` of any JSON number;
    a boolean, string or null is a parse error, as in the matrix records."""
    if type(value) is int or (kind is float and type(value) is float):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def _seed(cfg: dict) -> int:
    """The run's seed: a non-negative integer, as numpy's generators require."""
    seed = _coerce(int, cfg.get("seed", 0), "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _slot_source(entry: dict) -> str | None:
    """The one of ``frame-file``, ``bases`` and ``bases-file`` that a slot's entry
    names, if any; naming two is an error, raised before any file is read."""
    named = [key for key in ("frame-file", "bases", "bases-file") if key in entry]
    if len(named) > 1:
        raise ValueError(f"a system takes one of frame-file, bases and bases-file, "
                         f"got {' and '.join(named)}")
    return named[0] if named else None


def _build_bases(cfg: dict, dim: int, system: str | None = None) -> KdBases:
    """A bases file, or a preset of dimension ``dim``.  A file must respect the
    size cap and, for an audited ``system`` of dimension ``dim``, match it."""
    from .kirkwood_dirac import KdBases, preset_bases

    if _slot_source(cfg) == "bases-file":
        data = _load_json(cfg["bases-file"])
        if not {"basis_a", "basis_b"} <= data.keys():
            raise ValueError("bases file needs both basis_a and basis_b")
        kb = KdBases(cmat_from_json(data["basis_a"]), cmat_from_json(data["basis_b"]))
        if system is not None and kb.dim != dim:
            raise DimensionError(f"bases file has dim {kb.dim}, system {system!r} has dim {dim}")
        if kb.dim > MAX_QUANTUM_DIM:
            raise DimensionError(f"bases file dim must be <= {MAX_QUANTUM_DIM}, got {kb.dim}")
        return kb
    return preset_bases(cfg.get("bases", "fourier"), dim)


def run_kd_table(cfg: dict) -> int:
    dim = _coerce(int, cfg.get("dim", 2), "dim")
    if dim > MAX_QUANTUM_DIM:
        raise DimensionError(f"dim must be <= {MAX_QUANTUM_DIM}, got {dim}")
    kb = _build_bases(cfg, dim)
    dim = kb.dim

    if "state" in cfg:
        rho = cmat_from_json(_load_json(cfg["state"]))
    else:
        from .gpt import random_density

        rng = np.random.default_rng(_seed(cfg))
        rho = random_density(dim, rng)
    if rho.shape != (dim, dim):
        raise DimensionError(f"state has shape {rho.shape}; the bases need ({dim}, {dim})")

    if cfg.get("frame"):
        from .kirkwood_dirac import kd_frame_pair
        from .structure import Representation, SystemSlot

        # route through the frame pair: validates faithfulness
        rep = Representation({"kd": SystemSlot.from_pair(kd_frame_pair(kb))}, validate=False)
        table = rep.apply(None, "kd", rho.reshape(-1, 1)).reshape(dim, dim)
    else:
        from .kirkwood_dirac import kd_distribution

        table = kd_distribution(kb, rho)

    lines = ["a_label,b_label,re,im"]
    for a in range(dim):
        for b in range(dim):
            entry = table[a, b]
            lines.append(f"{kb.a_labels[a]},{kb.b_labels[b]},{_fmt(entry.real)},{_fmt(entry.imag)}")
    total = complex(table.sum())
    lines.append(f"sum,,{_fmt(total.real)},{_fmt(total.imag)}")
    _write_text(cfg.get("out"), "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_system_spec(spec) -> tuple[str, int]:
    if isinstance(spec, str):
        kind, _, dim = spec.partition(":")
        if dim.isdigit():
            return kind, int(dim)
    raise ValueError(f"bad system spec {spec!r}; expected e.g. 'quantum:2'")


def _audit_slot(entry: dict, source: str | None, sys) -> SystemSlot:
    """Slot for one audited system: a frame file, a bases preset or file, or the
    identity, as ``source`` (:func:`_slot_source` of ``entry``) names."""
    from .frames import DualPair, canonical_dual, frame_from_json
    from .kirkwood_dirac import kd_frame_pair
    from .structure import SystemSlot

    if sys.dim is None:
        if source == "frame-file":
            raise ValueError(f"frame files need a quantum system, not {sys.label}")
        if source is not None:
            raise ValueError(f"bases need a quantum system, not {sys.label}")
        return SystemSlot.identity(sys.real_dim)
    if source == "frame-file":
        loaded = frame_from_json(_load_json(entry["frame-file"]))
        pair = loaded if isinstance(loaded, DualPair) else canonical_dual(loaded)
        return SystemSlot.from_pair(pair)
    return SystemSlot.from_pair(kd_frame_pair(_build_bases(entry, sys.dim, sys.label)))


def run_audit(cfg: dict) -> int:
    from .gpt import make_system
    from .structure import DECOMPOSITION_ATOL, Representation, audit_representation

    seed = _seed(cfg)
    trials = _coerce(int, cfg.get("trials", 20), "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tol_value = _coerce(float, cfg.get("tol", DECOMPOSITION_ATOL), "tol")
    if not (math.isfinite(tol_value) and tol_value >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol_value!r}")

    entries = cfg.get("systems")
    if entries is None:
        spec = cfg.get("system", "quantum:2")
        entry = {k: v for k, v in cfg.items() if k in ("bases", "bases-file", "frame-file")}
        entry["system"] = spec
        entries = [entry]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError('"systems" must be a list of objects such as {"system": "quantum:2"}')

    sources = [_slot_source(entry) for entry in entries]
    systems, slots = [], {}
    for entry, source in zip(entries, sources):
        kind, dim = _parse_system_spec(entry.get("system", "quantum:2"))
        sys_obj = make_system(kind, dim, seed=seed)
        systems.append(sys_obj)
        slots[sys_obj.label] = _audit_slot(entry, source, sys_obj)

    # lenient construction: broken pairs must surface in the report, not here;
    # audit_representation rejects a repeated system or a slot that does not fit
    rep = Representation(slots, validate=False)
    report = audit_representation(rep, systems, trials=trials, seed=seed)

    payload = report.to_json()
    payload["tol"] = tol_value
    _write_text(cfg.get("out"), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.passes(tol_value) else EXIT_CHECK_FAILED


def run_coherence(cfg: dict) -> int:
    dims = cfg.get("dims", "2,3,2")
    if isinstance(dims, str):
        try:
            dims = [int(x) for x in dims.split(",")]
        except ValueError:
            raise ValueError(f"dims must be integers such as '2,3,2', got {dims!r}") from None
    if not isinstance(dims, list):
        raise ValueError(f"dims must be a list or a string such as '2,3,2', got {dims!r}")
    if len(dims) > 3:
        raise ValueError(f"dims takes at most three entries, got {len(dims)}")
    dims = [_coerce(int, x, "dims") for x in dims]
    if max(dims, default=0) > MAX_QUANTUM_DIM**2:
        raise DimensionError(f"dims entries must be <= {MAX_QUANTUM_DIM**2}, got {dims}")
    dims = (dims + [2, 2, 2])[:3]
    report = monoidal_coherence(
        dims[0], dims[1], trials=_coerce(int, cfg.get("trials", 50), "trials"),
        seed=_seed(cfg), dim_z=dims[2],
    )
    _write_text(cfg.get("out"), json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasirep",
        description="Quasiprobability tables, representation audits and coherence reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kd = sub.add_parser("kd-table", help="write a Kirkwood-Dirac table as CSV")
    kd.add_argument("--config", help="JSON run configuration")
    kd.add_argument("--bases", choices=["computational", "hadamard", "fourier"])
    kd.add_argument("--bases-file", help="JSON file with basis_a/basis_b matrices")
    kd.add_argument("--state", help="JSON matrix file with the input state")
    kd.add_argument("--dim", type=int, help="dimension for generated states/presets")
    kd.add_argument("--seed", type=int, help="seed for random state generation")
    kd.add_argument("--frame", action="store_const", const=True,
                    help="route through the frame pair (requires faithful bases)")
    kd.add_argument("--out", help="output CSV path (default stdout)")
    kd.set_defaults(func=run_kd_table)

    audit = sub.add_parser("audit", help="audit a representation and emit a JSON report")
    audit.add_argument("--config", help="JSON run configuration")
    audit.add_argument("--system", help="system spec such as quantum:2")
    audit.add_argument("--bases", choices=["computational", "hadamard", "fourier"])
    audit.add_argument("--bases-file")
    audit.add_argument("--frame-file", help="JSON frame file (optional dual included)")
    audit.add_argument("--trials", type=int)
    audit.add_argument("--seed", type=int)
    audit.add_argument("--tol", type=float, help="decomposition residual gate")
    audit.add_argument("--out", help="output JSON path (default stdout)")
    audit.set_defaults(func=run_audit)

    coh = sub.add_parser("coherence", help="verify complexification coherence")
    coh.add_argument("--config", help="JSON run configuration")
    coh.add_argument("--dims", help="comma-separated dimensions, e.g. 2,3,2")
    coh.add_argument("--trials", type=int)
    coh.add_argument("--seed", type=int)
    coh.add_argument("--out", help="output JSON path (default stdout)")
    coh.set_defaults(func=run_coherence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return args.func(cfg)
    except (OSError, json.JSONDecodeError, ValueError, QuasirepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
