"""Complex-valued quasiprobability representations of finite-dimensional
quantum and classical theories, with numerical verification of their
structure: every empirically adequate, linearity-preserving representation
factors through a state map, a complexified process and an effect map."""

from .linalg import (
    RANK_RTOL,
    cmat_from_json,
    cmat_to_json,
    max_abs,
    rank_range,
    vectorize,
)
from .complexify import (
    CoherenceReport,
    PairVector,
    complexify_map,
    embed,
    monoidal_coherence,
)
from .frames import (
    Channel,
    DualPair,
    Frame,
    canonical_dual,
    frame_operator,
    identity_channel,
    random_frame,
    represent_channel,
)
from .gpt import (
    GptProcess,
    GptSystem,
    channel_to_process,
    identity_resolution,
    make_system,
    random_channel,
    tomographic_decompose,
)
from .kirkwood_dirac import (
    KdBases,
    kd_distribution,
    kd_frame_pair,
    preset_bases,
    random_faithful_bases,
)
from .structure import (
    AuditReport,
    Representation,
    audit_representation,
    build_representation,
    extract_chi,
    extract_chi_phi,
    extract_phi,
    split_idempotent,
    splitting_isomorphism,
    verify_decomposition,
)

__version__ = "0.1.0"
