"""Complex-valued quasiprobability representations of finite-dimensional
quantum and classical theories, with numerical verification of their
structure: every empirically adequate, linearity-preserving representation
factors through a state map, a complexified process and an effect map.

Submodules load on first use: each public name below resolves through its
defining module when it is first read, so ``import quasirep`` imports none
of them and each CLI subcommand imports only the engine it runs."""

import importlib

_EXPORTS = {
    "linalg": ("RANK_RTOL", "cmat_from_json", "cmat_to_json", "max_abs", "rank_range",
               "vectorize"),
    "complexify": ("CoherenceReport", "PairVector", "complexify_map", "embed",
                   "monoidal_coherence"),
    "frames": ("Channel", "DualPair", "Frame", "canonical_dual", "frame_operator",
               "identity_channel", "random_frame", "represent_channel"),
    "gpt": ("GptProcess", "GptSystem", "channel_to_process", "identity_resolution",
            "make_system", "random_channel", "tomographic_decompose"),
    "kirkwood_dirac": ("KdBases", "kd_distribution", "kd_frame_pair", "preset_bases",
                       "random_faithful_bases"),
    "structure": ("AuditReport", "Representation", "audit_representation",
                  "build_representation", "extract_chi", "extract_chi_phi", "extract_phi",
                  "split_idempotent", "splitting_isomorphism", "verify_decomposition"),
}
# public name -> defining module; nothing resolved is stored in this namespace
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "errors")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
