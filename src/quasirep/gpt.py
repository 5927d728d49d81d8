"""Minimal generalized-probabilistic-theory systems and their tomography.

Two kinds of system are bundled:

* ``quantum`` with Hilbert dimension ``d``: the real space of self-adjoint
  ``d x d`` operators, coordinatized in a fixed orthonormal Hermitian basis;
  the spanning states are the standard tomography family of pure states, the
  effects reuse the same operators as functionals and the deterministic
  effect is the trace.
* ``classical`` with ``n`` outcomes: ``R^n`` with the delta-distribution
  basis, indicator effects and the all-ones deterministic effect.

Each system stores the coefficients ``t`` of a resolution of the identity
``sum_ij t_ij s_i e_j = id``, and any process between systems decomposes as
a real combination of the same prepare-and-measure pairs.  With the states
and effects as the rows of ``S`` and ``E`` the sum is ``S.T @ t @ E``, so
the minimal-norm least-squares coefficients of a target ``M`` factor as
``pinv(S.T) @ M @ pinv(E)``: two small pseudo-inverses stand in for the
``D**2 x D**2`` design matrix of the prepare-and-measure pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SpanningError
from .frames import Channel
from .linalg import as_cmat, haar_isometries, max_abs, vectorize

__all__ = [
    "GptSystem",
    "GptProcess",
    "hermitian_basis",
    "basis_isomorphism",
    "operator_to_coords",
    "coords_to_operator",
    "make_system",
    "identity_resolution",
    "tomographic_decompose",
    "random_channel",
    "random_kraus",
    "child_generators",
    "channel_to_process",
    "process_matrices",
    "random_density",
    "random_effect",
    "density_stack",
    "effect_stack",
]

MAX_QUANTUM_DIM = 8
# Entrywise ceiling on the imaginary part of real coordinates and on the
# residual of a prepare-and-measure decomposition.
COORDS_ATOL = 1e-10
# Slack of the nonnegativity and column-sum checks of a classical process.
SUBSTOCHASTIC_ATOL = 1e-12


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the ``d x d`` self-adjoint operators.

    Ordering: diagonal units first, then for each index pair ``j < k`` the
    symmetric and antisymmetric combinations ``(E_jk + E_kj)/sqrt(2)`` and
    ``i(E_kj - E_jk)/sqrt(2)`` (the Pauli X/Y pattern).
    """
    basis = []
    for j in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[j, j] = 1
        basis.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / np.sqrt(2)
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2)
            asym[k, j] = 1j / np.sqrt(2)
            basis.append(asym)
    return basis


def basis_isomorphism(d: int) -> np.ndarray:
    """Unitary ``d**2 x d**2`` matrix mapping Hermitian-basis coordinates to
    vectorized operators (column ``k`` is ``vec`` of the k-th basis element)."""
    return np.array([vectorize(h) for h in hermitian_basis(d)]).T


def operator_to_coords(x, iso: np.ndarray) -> np.ndarray:
    """Real coordinates of a self-adjoint operator in the fixed basis."""
    z = iso.conj().T @ vectorize(as_cmat(x, square=True))
    if max_abs(z.imag) > COORDS_ATOL:
        raise ValueError("operator is not self-adjoint: coordinates are complex")
    return z.real.copy()


def coords_to_operator(z, iso: np.ndarray) -> np.ndarray:
    d2 = iso.shape[0]
    d = int(round(np.sqrt(d2)))
    return (iso @ np.asarray(z, dtype=complex)).reshape(d, d)


def _tomography_states(d: int) -> list[np.ndarray]:
    """The fixed spanning family of d**2 pure states.

    Computational-basis projectors plus, for each pair ``j < k``, the
    projectors onto ``(|j> + |k>)/sqrt(2)`` and ``(|j> + i|k>)/sqrt(2)``.
    """
    states = []
    eye = np.eye(d, dtype=complex)
    for j in range(d):
        states.append(np.outer(eye[j], eye[j].conj()))
    for j in range(d):
        for k in range(j + 1, d):
            plus = (eye[j] + eye[k]) / np.sqrt(2)
            states.append(np.outer(plus, plus.conj()))
            plus_i = (eye[j] + 1j * eye[k]) / np.sqrt(2)
            states.append(np.outer(plus_i, plus_i.conj()))
    return states


class GptSystem:
    """A system of a tomographically-local theory in fixed coordinates.

    Attributes:
        kind: ``"quantum"`` or ``"classical"``.
        dim: Hilbert dimension ``d`` or outcome count ``n``.
        real_dim: dimension of the system's real vector space.
        states: spanning states as rows of a real matrix.
        effects: spanning effects as rows of a real matrix.
        u: deterministic-effect covector.
        t: identity-resolution coefficients.
        state_ops: the spanning states as operators (quantum systems only).
        iso: unitary map from real to complex coordinates, defined for both
            kinds: onto vectorized operators (quantum), the identity (classical).
    """

    def __init__(self, kind: str, dim: int, seed: int = 0, label: str | None = None):
        if dim < 1:
            raise DimensionError("system dimension must be >= 1")
        if kind == "quantum" and dim > MAX_QUANTUM_DIM:
            raise DimensionError(f"quantum systems support d <= {MAX_QUANTUM_DIM}")
        if kind not in ("quantum", "classical"):
            raise ValueError(f"unknown system kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.seed = seed
        self.label = label if label is not None else f"{kind}-{dim}"
        if kind == "quantum":
            self.real_dim = dim**2
            self.iso = basis_isomorphism(dim)
            self.state_ops = tuple(_tomography_states(dim))
            ops = np.array(self.state_ops)
            coords = self.iso.conj().T @ ops.reshape(len(ops), -1).T
            if max_abs(coords.imag) > COORDS_ATOL:
                raise ValueError("tomography states are not self-adjoint")
            self.states = coords.T.real.copy()
            self.effects = self.states.copy()
            self.u = operator_to_coords(np.eye(dim), self.iso)
        else:
            self.real_dim = dim
            self.iso = np.eye(dim, dtype=complex)
            self.state_ops = None
            self.states = np.eye(dim)
            self.effects = np.eye(dim)
            self.u = np.ones(dim)
        self.t = identity_resolution(self)

    @property
    def is_quantum(self) -> bool:
        return self.kind == "quantum"


@dataclass(frozen=True, eq=False)
class GptProcess:
    """A linear process between two systems, stored in their coordinates."""

    source: GptSystem
    target: GptSystem
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.target.real_dim, self.source.real_dim):
            raise DimensionError(
                f"process matrix {m.shape} does not map "
                f"{self.source.real_dim} -> {self.target.real_dim}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("process entries must be finite")
        object.__setattr__(self, "matrix", m)

    def is_substochastic(self) -> bool:
        """Nonnegative entries with column sums at most one (classical kind)."""
        m = self.matrix
        return bool(np.all(m >= -SUBSTOCHASTIC_ATOL)
                    and np.all(m.sum(axis=0) <= 1 + SUBSTOCHASTIC_ATOL))


def make_system(kind: str, dim: int, seed: int = 0, label: str | None = None) -> GptSystem:
    """Construct a bundled system; see :class:`GptSystem` for the content.

    The spanning families are fixed deterministic constructions; ``seed``
    only rides along in the descriptor for reproducible configs.
    """
    return GptSystem(kind, dim, seed=seed, label=label)


def identity_resolution(sys: GptSystem) -> np.ndarray:
    """Coefficients ``t`` with ``sum_ij t_ij s_i e_j = id`` on the system.

    The minimal-norm least-squares solution ``pinv(S.T) @ pinv(E)`` for
    states and effects as the rows of ``S`` and ``E`` (unique for spanning
    bases, deterministic for overcomplete families).

    Raises:
        SpanningError: if no solution reaches the residual tolerance.
    """
    return _decompose_matrix(sys.states, sys.effects, np.eye(sys.real_dim))


def tomographic_decompose(proc: GptProcess) -> np.ndarray:
    """Coefficients ``r`` with ``T = sum_ij r_ij s_i e_j``.

    States are drawn from the target system and effects from the source, so
    the prepare-and-measure pairs have the type of ``T``.
    """
    return _decompose_matrix(proc.target.states, proc.source.effects, proc.matrix)


def _decompose_matrix(states, effects, target) -> np.ndarray:
    # the factored minimal-norm solution; see the module docstring
    coeff = np.linalg.pinv(states.T) @ target @ np.linalg.pinv(effects)
    residual = max_abs(states.T @ coeff @ effects - target)
    if residual > COORDS_ATOL:
        raise SpanningError(
            f"prepare-measure pairs do not span the target: residual {residual:.3e}"
        )
    return coeff


def random_channel(d_in: int, d_out: int, seed: int = 0) -> Channel:
    """Haar-random CPTP channel from a Stinespring isometry.

    The environment has dimension ``d_in * d_out``; the isometry is the first
    ``d_in`` columns of a Haar unitary on the output-plus-environment space,
    so the Kraus operators satisfy ``sum K†K = I`` exactly.
    """
    return Channel(random_kraus(d_in, d_out, [seed])[0])


def random_kraus(d_in: int, d_out: int, seeds) -> np.ndarray:
    """Kraus stacks of :func:`random_channel` for each seed, built at once.

    Returns shape ``(len(seeds), d_in * d_out, d_out, d_in)``.  Each channel
    draws its own ``(2, dim, dim)`` normal block from ``default_rng(seed)``
    (``dim = d_out * d_in * d_out``; :func:`child_generators` builds them all
    at once) and keeps its first ``d_in`` columns; one batched QR turns them
    into the Stinespring isometries.
    """
    if not (1 <= d_in <= MAX_QUANTUM_DIM and 1 <= d_out <= MAX_QUANTUM_DIM):
        raise DimensionError(f"channel dimensions must lie in 1..{MAX_QUANTUM_DIM}")
    env = d_in * d_out
    dim = d_out * env
    normals = np.empty((len(seeds), 2, dim, d_in))
    for i, rng in enumerate(child_generators(seeds)):
        normals[i] = rng.standard_normal((2, dim, dim))[..., :d_in]
    isometries = haar_isometries(normals)
    # Kraus operator e takes the isometry rows e, e + env, e + 2 env, ...
    return isometries.reshape(-1, d_out, env, d_in).transpose(0, 2, 1, 3)


# SeedSequence.generate_state, word i: xor INIT_B * MULT_B**i, times INIT_B * MULT_B**(i + 1)
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(9)], np.uint32)


@functools.cache
def _pcg_state_type() -> type:
    """An ``ISeedSequence`` handing ``PCG64`` a precomputed ``generate_state(4, uint64)``
    row; built on first use, as importing numpy.random takes about 14 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class PcgState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PcgState


def child_generators(entropies) -> list[np.random.Generator]:
    """One generator per entropy, each with exactly the state of ``default_rng(entropy)``.

    ``SeedSequence`` still coerces, mixes and checks each entropy; only its
    ``generate_state`` hash runs once for the batch, as ``uint32`` array arithmetic.
    """
    pools = np.array([np.random.SeedSequence(e).pool for e in entropies], dtype=np.uint32)
    words = (np.tile(pools.reshape(-1, 4), 2) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    words ^= words >> 16
    rows = words.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(state)) for state in map(_pcg_state_type(), rows)]


def channel_to_process(ch: Channel, source: GptSystem, target: GptSystem) -> GptProcess:
    """Express a quantum channel in the systems' real coordinates."""
    return GptProcess(source, target, process_matrices(ch.superop, source, target))


def process_matrices(superops, source: GptSystem, target: GptSystem) -> np.ndarray:
    """Real coordinate matrices of channel superoperators (a matrix or a stack).

    Completely positive maps preserve self-adjointness, so the coordinate
    matrices are real; a residual imaginary part above ``COORDS_ATOL`` is an
    error.
    """
    if not (source.is_quantum and target.is_quantum):
        raise DimensionError("channel_to_process needs quantum systems")
    if np.shape(superops)[-2:] != (target.dim**2, source.dim**2):
        raise DimensionError("channel dimensions do not match the systems")
    m = target.iso.conj().T @ superops @ source.iso
    if max_abs(m.imag) > COORDS_ATOL:
        raise ValueError("channel does not preserve self-adjointness")
    return m.real.copy()


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-one positive operator from a normalized Ginibre product."""
    return density_stack(rng.standard_normal((2, d, d)))


def density_stack(normals) -> np.ndarray:
    """Density operators ``g g† / Tr(g g†)`` from ``(..., 2, d, d)`` normal
    draws (real and imaginary parts of ``g``)."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_effect(d: int, rng: np.random.Generator) -> np.ndarray:
    """Subnormalized effect ``V† diag(u) V`` with Haar ``V`` and ``u in [0,1]``."""
    normals = rng.standard_normal((2, d, d))
    return effect_stack(normals, rng.uniform(0, 1, d))


def effect_stack(normals, weights) -> np.ndarray:
    """Effects ``V† diag(u) V`` from the ``(..., 2, d, d)`` normal draws of the
    Haar unitaries ``V`` and the ``(..., d)`` weights ``u``."""
    v = haar_isometries(normals)
    diag = weights[..., :, None] * np.eye(weights.shape[-1])
    return np.swapaxes(v.conj(), -1, -2) @ diag @ v
