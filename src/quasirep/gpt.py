"""Minimal generalized-probabilistic-theory systems and their tomography.

A system is data: a :class:`GptSystem` record, built by its theory's
constructor in the ``_THEORIES`` table.  :func:`make_system` looks a theory
up by name, and no other module knows the theory names.

Each system stores the coefficients ``t`` of a resolution of the identity
``sum_ij t_ij s_i e_j = id``, and any process between systems decomposes as
a real combination of the same prepare-and-measure pairs.  With the states
and effects as the rows of ``S`` and ``E`` the sum is ``S.T @ t @ E``, so
the coefficients of a target ``M`` are ``inv(S.T) @ M @ inv(E)`` for a
square family (as many states and effects as coordinates), and otherwise, or
when the inverse fails, the minimal-norm ``pinv(S.T) @ M @ pinv(E)``: two
small solves stand in for the ``D**2 x D**2`` design matrix of the pairs.
When the states equal the effects (as for quantum systems) one solve does,
as ``inv(S.T) = inv(S).T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SpanningError
from .frames import Channel
from .linalg import MAX_QUANTUM_DIM, haar_isometries, max_abs

__all__ = [
    "GptSystem",
    "GptProcess",
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

# Entrywise ceiling on the imaginary part of real coordinates and on the
# residual of a prepare-and-measure decomposition.
COORDS_ATOL = 1e-10


def _basis_isomorphism(d: int) -> np.ndarray:
    """Unitary ``d**2 x d**2`` matrix mapping real coordinates to vectorized
    operators: column ``k`` is ``vec`` of the k-th element of the orthonormal
    Hermitian basis of the ``d x d`` self-adjoint operators.

    Ordering: diagonal units first, then for each index pair ``j < k`` the
    symmetric and antisymmetric combinations ``(E_jk + E_kj)/sqrt(2)`` and
    ``i(E_kj - E_jk)/sqrt(2)`` (the Pauli X/Y pattern).
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    n = d  # the next pair's symmetric element
    for j in range(d):
        basis[j, j, j] = 1
        for k in range(j + 1, d):
            basis[n, j, k] = basis[n, k, j] = 1 / np.sqrt(2)
            basis[n + 1, j, k] = -1j / np.sqrt(2)
            basis[n + 1, k, j] = 1j / np.sqrt(2)
            n += 2
    # rows are vec of the elements; the transpose makes them columns
    return basis.reshape(d * d, d * d).T


@dataclass(frozen=True, eq=False)
class GptSystem:
    """A system of a tomographically-local theory in fixed coordinates.

    Attributes:
        label: the system's name in a representation.
        states: spanning states as rows of a real matrix.
        effects: spanning effects as rows of a real matrix.
        u: deterministic-effect covector.
        iso: unitary map from real to complex coordinates.
        dim: Hilbert dimension channels act on, ``None`` without a Hilbert space.
        real_dim: dimension of the real space, ``states.shape[1]``.
        t: identity-resolution coefficients, derived from the rest.
    """

    label: str
    states: np.ndarray
    effects: np.ndarray
    u: np.ndarray
    iso: np.ndarray
    dim: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", identity_resolution(self))

    @property
    def real_dim(self) -> int:
        return self.states.shape[1]


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


def _quantum(d: int, label: str) -> GptSystem:
    """Quantum system on ``C^d``: the real space of self-adjoint ``d x d``
    operators in the fixed orthonormal Hermitian basis, with the trace as the
    deterministic effect.  States and effects are the tomography family of
    pure states in closed form: row ``j < d`` is ``|j>``, the unit ``e_j``;
    then each pair ``j < k`` has rows for ``(|j> + |k>)/sqrt(2)`` and ``(|j> +
    i|k>)/sqrt(2)``, with ``1/2`` at ``j`` and ``k`` and ``1/sqrt(2)`` at the
    row's own index: the pair's symmetric, then antisymmetric element."""
    if d > MAX_QUANTUM_DIM:
        raise DimensionError(f"quantum systems support d <= {MAX_QUANTUM_DIM}")
    j, k = (np.repeat(ix, 2) for ix in np.nonzero(np.arange(d)[:, None] < np.arange(d)))
    pair = np.arange(d, d * d)
    states = np.eye(d * d)
    states[pair, pair] = 1 / np.sqrt(2)
    states[pair, j] = states[pair, k] = 0.5
    u = (np.arange(d * d) < d).astype(float)
    return GptSystem(label, states, states.copy(), u, _basis_isomorphism(d), d)


def _classical(n: int, label: str) -> GptSystem:
    """Classical system with ``n`` outcomes: ``R^n`` with the delta states,
    indicator effects and the all-ones deterministic effect; no Hilbert space."""
    # the real-dimension ceiling of quantum systems
    if n > MAX_QUANTUM_DIM**2:
        raise DimensionError(f"classical systems support n <= {MAX_QUANTUM_DIM**2}")
    return GptSystem(label, np.eye(n), np.eye(n), np.ones(n), np.eye(n, dtype=complex))


_THEORIES = {"quantum": _quantum, "classical": _classical}


def make_system(kind: str, dim: int, seed: int = 0, label: str | None = None) -> GptSystem:
    """The system of theory ``kind`` and size ``dim``, labelled ``kind-dim``
    by default; ``seed`` is accepted and unused."""
    if kind not in _THEORIES:
        raise ValueError(f"unknown system kind {kind!r}; known kinds: {', '.join(_THEORIES)}")
    if dim < 1:
        raise DimensionError("system dimension must be >= 1")
    return _THEORIES[kind](dim, label if label is not None else f"{kind}-{dim}")


def identity_resolution(sys: GptSystem) -> np.ndarray:
    """Coefficients ``t`` with ``sum_ij t_ij s_i e_j = id`` on the system.

    For states and effects as the rows of ``S`` and ``E``: ``inv(S.T) @
    inv(E)`` for a square family (unique), else the minimal-norm
    least-squares ``pinv(S.T) @ pinv(E)`` (deterministic for overcomplete
    families); see the module docstring.

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
    # see the module docstring
    square = states.shape[0] == states.shape[1] and effects.shape[0] == effects.shape[1]
    same = np.array_equal(states, effects)  # one family: its inverse's transpose is the other
    residual = np.inf
    for inverse in [np.linalg.inv] * square + [np.linalg.pinv]:
        try:
            right = inverse(effects)
            coeff = (right.T if same else inverse(states.T)) @ target @ right
        except np.linalg.LinAlgError:  # inv of a singular family, or an SVD that fails
            continue
        residual = max_abs(states.T @ coeff @ effects - target)
        if residual <= COORDS_ATOL:
            return coeff
    raise SpanningError(f"prepare-measure pairs do not span the target: residual {residual:.3e}")


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
    for sys in (source, target):
        if sys.dim is None:
            raise DimensionError(f"system {sys.label!r} has no Hilbert dimension")
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
