"""Complexification of real vector spaces and real-linear maps.

A complexified vector lives in two encodings:

* the **pair encoding** ``(w1, w2)`` of two real vectors with the complex
  structure ``J (w1, w2) = (-w2, w1)`` (``scalar_mul(1j, .)``) playing the
  role of multiplication by ``i`` (this is where the monoidal coherence maps
  are nontrivial), and
* the **coordinate encoding** ``w1 + i w2`` in ``C^n`` used everywhere
  downstream.

``pair_to_coord`` fixes the isomorphism between the two.  Pair encodings
may be stacks: ``(..., n)`` components, one vector per leading index.
Real-linear maps complexify entrywise: ``complexify_map`` returns the same
matrix with entries promoted to complex, which acts on pairs componentwise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError
from .linalg import max_abs

__all__ = [
    "PairVector",
    "embed",
    "scalar_mul",
    "apply_complexified",
    "pair_to_coord",
    "pair_kron",
    "complexify_map",
    "CoherenceReport",
    "monoidal_coherence",
]

# Entrywise ceiling of the unit and multiplication isomorphism checks.
COHERENCE_ATOL = 1e-10
# Ceiling of the naturality, associativity and unitality residuals.
COHERENCE_RESIDUAL_ATOL = 1e-12
# Entries of the triple tensors a (x) b (x) c that one block of trials stacks
# (128 trials at dims 4, 4, 4, at least one): it bounds the memory of a run.
# A block has a fixed cost of about 130 numpy calls.  Against 4096, a sweep
# over dims 2,3,2 / 4,4,4 / 8,8,8 / 4,4,64 ran x1.2-x1.55 faster at 8192 and
# at most x1.9 at 16384 or 32768, but those raised peak RSS by 0.4-2 MB
# where 8192 stayed within 0.2 MB.
COHERENCE_BLOCK_ENTRIES = 8192


@dataclass(frozen=True, eq=False)
class PairVector:
    """Element of a complexified space in the pair encoding; ``(..., n)`` stacks allowed."""

    real: np.ndarray
    imag: np.ndarray

    def __post_init__(self) -> None:
        re = np.asarray(self.real, dtype=float)
        im = np.asarray(self.imag, dtype=float)
        if re.shape != im.shape or re.ndim < 1:
            raise DimensionError("pair components must be real vectors (or stacks) of equal shape")
        object.__setattr__(self, "real", re)
        object.__setattr__(self, "imag", im)

    @property
    def dim(self) -> int:
        return self.real.shape[-1]

    def stack(self) -> np.ndarray:
        """Both components as one real vector (per row of a stack) of length ``2 * dim``."""
        return np.concatenate([self.real, self.imag], axis=-1)


def embed(w) -> PairVector:
    """Standard embedding ``w -> (w, 0)`` of a real vector (or a stack of them)."""
    v = np.asarray(w, dtype=float)
    return PairVector(v, np.zeros_like(v))


def scalar_mul(alpha, p: PairVector) -> PairVector:
    """Complex scalar multiplication ``(a+bi)(w1,w2) = (a w1 - b w2, b w1 + a w2)``;
    ``alpha`` may be a complex array that broadcasts against the components."""
    a, b = alpha.real, alpha.imag
    return PairVector(a * p.real - b * p.imag, b * p.real + a * p.imag)


def apply_complexified(f, p: PairVector) -> PairVector:
    """Act with the complexification of a real map (or a stack): ``(w1, w2) -> (f w1, f w2)``."""
    fm = np.asarray(f, dtype=float)
    if fm.ndim < 2 or fm.shape[-1] != p.dim:
        raise DimensionError(f"map of shape {fm.shape} cannot act on pairs of dim {p.dim}")
    return PairVector((fm @ p.real[..., None])[..., 0], (fm @ p.imag[..., None])[..., 0])


def pair_to_coord(p: PairVector) -> np.ndarray:
    """Coordinate encoding ``w1 + i w2`` in ``C^dim``."""
    return p.real + 1j * p.imag


def pair_kron(p: PairVector, q: PairVector) -> PairVector:
    """Monoidal multiplication of pair-encoded vectors on a simple tensor.

    Mimics the distributive expansion of ``(w1 + i w2) (x) (v1 + i v2)``::

        (w1, w2) (x) (v1, v2)  ->  (w1(x)v1 - w2(x)v2,  w1(x)v2 + w2(x)v1)

    using the row-major real Kronecker product for ``(x)``, row by row on stacks.
    """
    re = _kron(p.real, q.real) - _kron(p.imag, q.imag)
    im = _kron(p.real, q.imag) + _kron(p.imag, q.real)
    return PairVector(re, im)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-major Kronecker product on the last axis, broadcast over the others, in one
    ``einsum`` kernel: each entry is the one product ``x[..., i] * y[..., j]``, value for
    value numpy's ``kron`` (``np.array_equal``: an exact zero may differ in sign)."""
    outer = np.einsum("...i,...j->...ij", x, y)
    return outer.reshape(*outer.shape[:-2], -1)


def complexify_map(f) -> np.ndarray:
    """Promote a real matrix (or a stack of them) to its complexified map.

    The result acts on coordinate encodings; on pair encodings the same map
    acts componentwise (see :func:`apply_complexified`).  The promotion is
    exact, functorial (``complexify_map(g @ f) == complexify_map(g) @
    complexify_map(f)``) and faithful.
    """
    fm = np.asarray(f, dtype=float)
    if fm.ndim not in (2, 3):
        raise DimensionError("complexify_map expects a matrix or a stack of matrices")
    if not np.all(np.isfinite(fm)):
        raise ValueError("map entries must be finite")
    return fm.astype(complex)


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of the monoidal coherence checks for the complexification."""

    epsilon_iso: bool
    mu_iso: bool
    naturality_max_residual: float
    associativity_max_residual: float
    unitality_max_residual: float
    seed: int

    @property
    def all_pass(self) -> bool:
        residuals = (self.naturality_max_residual, self.associativity_max_residual,
                     self.unitality_max_residual)
        # a NaN residual compares false, so it fails the gate
        return (self.epsilon_iso and self.mu_iso
                and all(r <= COHERENCE_RESIDUAL_ATOL for r in residuals))

    def to_json(self) -> dict:
        return asdict(self)


def _pair_residual(p: PairVector, q: PairVector) -> float:  # NaN-propagating
    return float(np.maximum(max_abs(p.real - q.real), max_abs(p.imag - q.imag)))


def _check_epsilon(rng: np.random.Generator) -> bool:
    """The unit map epsilon, ``z -> (Re z, Im z)``, is complex-linear under :func:`scalar_mul`
    and :func:`pair_to_coord` inverts it exactly; ten scalars, real then imaginary part."""
    draws = rng.uniform(-1, 1, (10, 2))
    z, iz = draws.view(complex), 1j * draws.view(complex)
    eps = PairVector(draws[:, :1], draws[:, 1:])
    return (_pair_residual(scalar_mul(1j, eps), PairVector(iz.real, iz.imag)) <= COHERENCE_ATOL
            and np.array_equal(pair_to_coord(eps), z))


def _check_mu_iso(dim_w: int, dim_v: int) -> bool:
    """Verify mu and its basis-built inverse compose to the identity both ways.

    The inverse is defined on the product basis: the pair ``(e_i (x) e_j, 0)``
    pulls back to ``embed(e_i) (x) embed(e_j)`` and ``(0, e_i (x) e_j)`` to
    ``embed(e_i) (x) (0, e_j)``, then extends complex-linearly.  On simple
    tensors both composites are computed explicitly, all ``j`` as one stack per ``i``.
    """
    ej = np.eye(dim_v)
    residual = 0.0
    for ei in np.eye(dim_w):  # row j of each stack holds the simple tensor e_i (x) e_j
        target = _kron(ei, ej)
        # forward on the pulled-back tensors (e_i, 0) (x) (e_j, 0) and (e_i, 0) (x) (0, e_j),
        # then the inverse in coordinates: both basis tensors return
        for pulled_back, image in ((embed(ej), target), (PairVector(0 * ej, ej), 1j * target)):
            fwd = pair_kron(embed(ei), pulled_back)
            residual = np.max([residual, _pair_residual(fwd, PairVector(image.real, image.imag)),
                               max_abs(pair_to_coord(fwd) - image)])
    return residual <= COHERENCE_ATOL


def _naturality(f: np.ndarray, g: np.ndarray, p: PairVector, q: PairVector) -> float:
    """Largest residual of ``C(f (x) g) mu(p, q) == mu(C(f) p, C(g) q)`` on stacks of
    zero-padded maps: a padded row is an exact zero on both sides."""
    f_kron_g = _kron(f[:, :, None, :], g[:, None, :, :]).reshape(len(f), -1, p.dim * q.dim)
    via_product = apply_complexified(f_kron_g, pair_kron(p, q))
    via_factors = pair_kron(apply_complexified(f, p), apply_complexified(g, q))
    return _pair_residual(via_product, via_factors)


def _codomain_rows(u: np.ndarray) -> np.ndarray:
    """``1 + (u >= -1/3) + (u >= 1/3)``: uniform on {1, 2, 3} for ``u`` uniform on [-1, 1)."""
    return 1 + (u >= -1 / 3) + (u >= 1 / 3)


def _coherence_block(rng, trials: int, dim_w: int, dim_v: int, dim_z: int) -> np.ndarray:
    """Naturality, associativity and unitality residuals of ``trials`` trials.

    One ``uniform(-1, 1)`` call draws a row per trial: ``u_m``, ``u_n``, the
    ``(3, dim_w)`` map ``f``, the ``(3, dim_v)`` map ``g``, the pairs ``p, q,
    a, b, c`` (each real then imaginary part) and the scalar ``alpha``
    (likewise).  The rows of ``f`` from ``m = _codomain_rows(u_m)`` on are
    zeroed, and those of ``g`` from ``n = _codomain_rows(u_n)`` on.
    """
    parts = [1, 1, 3 * dim_w, 3 * dim_v,
             dim_w, dim_w, dim_v, dim_v, dim_w, dim_w, dim_v, dim_v, dim_z, dim_z, 1, 1]
    u_m, u_n, f, g, *cols = np.split(rng.uniform(-1, 1, (trials, sum(parts))),
                                     np.cumsum(parts)[:-1], axis=1)
    f, g = f.reshape(trials, 3, dim_w), g.reshape(trials, 3, dim_v)
    f[np.arange(3) >= _codomain_rows(u_m)] = 0.0
    g[np.arange(3) >= _codomain_rows(u_n)] = 0.0
    p, q, a, b, c, alpha = (PairVector(*cols[k:k + 2]) for k in range(0, 12, 2))

    # associativity: both bracketings of a triple tensor
    associativity = _pair_residual(pair_kron(a, pair_kron(b, c)), pair_kron(pair_kron(a, b), c))
    # unitality: multiplying with an embedded scalar equals scalar action
    scaled = scalar_mul(pair_to_coord(alpha), a)
    unitality = np.maximum(_pair_residual(pair_kron(alpha, a), scaled),
                           _pair_residual(pair_kron(a, alpha), scaled))
    return np.array([_naturality(f, g, p, q), associativity, unitality])


def monoidal_coherence(dim_w: int, dim_v: int, trials: int = 50, seed: int = 0,
                       dim_z: int = 2) -> CoherenceReport:
    """Numerically verify the monoidal coherence of the complexification.

    Checks, on ``trials`` random real maps and random simple tensors:

    * the unit map is a complex-linear isomorphism,
    * the multiplication is an isomorphism with its basis-built inverse,
    * naturality: complexifying ``f (x) g`` after multiplying agrees with
      multiplying after ``C(f) (x) C(g)``,
    * the associativity square and both unitality triangles.

    All residuals are entrywise max-norm on pair encodings; a NaN one reads
    ``inf``.  After the epsilon check, each trial reads one fixed-width row of
    the generator's stream (:func:`_coherence_block`).  Blocks of trials, sized
    by ``COHERENCE_BLOCK_ENTRIES``, are slices of that stream: the report does
    not depend on the block size, and memory does not grow with ``trials``.
    """
    if dim_w < 1 or dim_v < 1 or dim_z < 1:
        raise DimensionError("dimensions must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    epsilon_iso, mu_iso = _check_epsilon(rng), _check_mu_iso(dim_w, dim_v)
    size = max(1, COHERENCE_BLOCK_ENTRIES // (dim_w * dim_v * dim_z))  # trials per block
    worst = np.zeros(3)
    for start in range(0, trials, size):
        block = _coherence_block(rng, min(size, trials - start), dim_w, dim_v, dim_z)
        worst = np.maximum(worst, block)
    # naturality, associativity and unitality, in the report's field order
    worst = np.nan_to_num(worst, nan=np.inf, posinf=np.inf).tolist()
    return CoherenceReport(bool(epsilon_iso), bool(mu_iso), *worst, seed=seed)
