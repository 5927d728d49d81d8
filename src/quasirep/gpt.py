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
    "make_system",
    "identity_resolution",
    "tomographic_decompose",
    "random_channel",
    "random_kraus",
    "channel_block_shape",
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
        iso: unitary map from real to complex coordinates, defined for both
            kinds: onto vectorized operators (quantum), the identity (classical).
    """

    def __init__(self, kind: str, dim: int, seed: int = 0, label: str | None = None):
        if dim < 1:
            raise DimensionError("system dimension must be >= 1")
        if kind == "quantum" and dim > MAX_QUANTUM_DIM:
            raise DimensionError(f"quantum systems support d <= {MAX_QUANTUM_DIM}")
        # the real-dimension ceiling of quantum systems
        if kind == "classical" and dim > MAX_QUANTUM_DIM**2:
            raise DimensionError(f"classical systems support n <= {MAX_QUANTUM_DIM**2}")
        if kind not in ("quantum", "classical"):
            raise ValueError(f"unknown system kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.seed = seed
        self.label = label if label is not None else f"{kind}-{dim}"
        if kind == "quantum":
            self.real_dim = dim**2
            self.iso = basis_isomorphism(dim)
            ops = np.array(_tomography_states(dim))
            coords = self.iso.conj().T @ ops.reshape(len(ops), -1).T
            if max_abs(coords.imag) > COORDS_ATOL:
                raise ValueError("tomography states are not self-adjoint")
            self.states = coords.T.real.copy()
            self.effects = self.states.copy()
            self.u = operator_to_coords(np.eye(dim), self.iso)
        else:
            self.real_dim = dim
            self.iso = np.eye(dim, dtype=complex)
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

    The environment has dimension ``d_in * d_out``; the isometry is built by
    :func:`random_kraus` from one normal block drawn from ``default_rng(seed)``,
    so the Kraus operators satisfy ``sum K†K = I`` exactly.
    """
    normals = np.random.default_rng(seed).standard_normal(channel_block_shape(d_in, d_out))
    return Channel(random_kraus(d_in, d_out, normals))


def channel_block_shape(d_in: int, d_out: int) -> tuple[int, int, int]:
    """Shape ``(2, d_out**2 * d_in, d_in)`` of the normal block one channel
    ``d_in -> d_out`` draws: real and imaginary parts of its Ginibre columns."""
    if not (1 <= d_in <= MAX_QUANTUM_DIM and 1 <= d_out <= MAX_QUANTUM_DIM):
        raise DimensionError(f"channel dimensions must lie in 1..{MAX_QUANTUM_DIM}")
    return (2, d_out**2 * d_in, d_in)


def random_kraus(d_in: int, d_out: int, normals) -> np.ndarray:
    """Kraus operators of Haar-random channels from their normal blocks.

    ``normals`` is one :func:`channel_block_shape` block or a ``(..., 2,
    d_out**2 * d_in, d_in)`` stack of them; the result has shape ``(...,
    d_in * d_out, d_out, d_in)``.  One batched phase-fixed QR of the Ginibre
    columns gives Haar isometries on output (x) environment.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.shape[-3:] != channel_block_shape(d_in, d_out):
        raise DimensionError(
            f"normal blocks {normals.shape} do not fit a {d_in} -> {d_out} channel"
        )
    env = d_in * d_out
    isometries = haar_isometries(normals)
    # Kraus operator e takes the isometry rows e, e + env, e + 2 env, ...
    return isometries.reshape(*normals.shape[:-3], d_out, env, d_in).swapaxes(-3, -2)


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
