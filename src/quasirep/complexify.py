"""Complexification of real vector spaces and real-linear maps.

A complexified vector lives in two encodings:

* the **pair encoding** ``(w1, w2)`` of two real vectors with the complex
  structure ``J (w1, w2) = (-w2, w1)`` (``scalar_mul(1j, .)``) playing the
  role of multiplication by ``i`` (this is where the monoidal coherence maps
  are nontrivial), and
* the **coordinate encoding** ``w1 + i w2`` in ``C^n`` used everywhere
  downstream.

``pair_to_coord`` fixes the isomorphism between the two.
Real-linear maps complexify entrywise: ``complexify_map`` returns the same
matrix with entries promoted to complex, which acts on pairs componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class PairVector:
    """Element of a complexified space in the two-copy (pair) encoding."""

    real: np.ndarray
    imag: np.ndarray

    def __post_init__(self) -> None:
        re = np.asarray(self.real, dtype=float)
        im = np.asarray(self.imag, dtype=float)
        if re.shape != im.shape or re.ndim != 1:
            raise DimensionError("pair components must be real vectors of equal length")
        object.__setattr__(self, "real", re)
        object.__setattr__(self, "imag", im)

    @property
    def dim(self) -> int:
        return self.real.size

    def stack(self) -> np.ndarray:
        """Both components as one real vector of length ``2 * dim``."""
        return np.concatenate([self.real, self.imag])


def embed(w) -> PairVector:
    """Standard embedding ``w -> (w, 0)`` of a real vector."""
    v = np.asarray(w, dtype=float)
    if v.ndim != 1:
        raise DimensionError("embed expects a real vector")
    return PairVector(v, np.zeros_like(v))


def scalar_mul(alpha: complex, p: PairVector) -> PairVector:
    """Complex scalar multiplication ``(a+bi)(w1,w2) = (a w1 - b w2, b w1 + a w2)``."""
    a, b = alpha.real, alpha.imag
    return PairVector(a * p.real - b * p.imag, b * p.real + a * p.imag)


def apply_complexified(f, p: PairVector) -> PairVector:
    """Act with the complexification of a real map: ``(w1, w2) -> (f w1, f w2)``."""
    fm = np.asarray(f, dtype=float)
    if fm.ndim != 2 or fm.shape[1] != p.dim:
        raise DimensionError(f"map of shape {fm.shape} cannot act on pairs of dim {p.dim}")
    return PairVector(fm @ p.real, fm @ p.imag)


def pair_to_coord(p: PairVector) -> np.ndarray:
    """Coordinate encoding ``w1 + i w2`` in ``C^dim``."""
    return p.real + 1j * p.imag


def pair_kron(p: PairVector, q: PairVector) -> PairVector:
    """Monoidal multiplication of pair-encoded vectors on a simple tensor.

    Mimics the distributive expansion of ``(w1 + i w2) (x) (v1 + i v2)``::

        (w1, w2) (x) (v1, v2)  ->  (w1(x)v1 - w2(x)v2,  w1(x)v2 + w2(x)v1)

    using the row-major real Kronecker product for ``(x)``.
    """
    re = np.kron(p.real, q.real) - np.kron(p.imag, q.imag)
    im = np.kron(p.real, q.imag) + np.kron(p.imag, q.real)
    return PairVector(re, im)


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
        return self.epsilon_iso and self.mu_iso and max(
            self.naturality_max_residual,
            self.associativity_max_residual,
            self.unitality_max_residual,
        ) <= 1e-12

    def to_json(self) -> dict:
        return {
            "epsilon_iso": self.epsilon_iso,
            "mu_iso": self.mu_iso,
            "naturality_max_residual": self.naturality_max_residual,
            "associativity_max_residual": self.associativity_max_residual,
            "unitality_max_residual": self.unitality_max_residual,
            "seed": self.seed,
        }


def _pair_residual(p: PairVector, q: PairVector) -> float:
    return max(max_abs(p.real - q.real), max_abs(p.imag - q.imag))


def _random_pair(rng: np.random.Generator, dim: int) -> PairVector:
    return PairVector(rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim))


def _unit(z: complex) -> PairVector:
    """The unit map epsilon: a complex scalar as the one-entry pair ``(Re z, Im z)``."""
    return PairVector(np.array([z.real]), np.array([z.imag]))


def _check_epsilon(rng: np.random.Generator) -> bool:
    """epsilon is complex-linear, ``i eps(z) == eps(i z)`` under :func:`scalar_mul`,
    and :func:`pair_to_coord` inverts it exactly."""
    ok = True
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ok &= _pair_residual(scalar_mul(1j, _unit(z)), _unit(1j * z)) <= COHERENCE_ATOL
        ok &= complex(pair_to_coord(_unit(z))[0]) == z
    return ok


def _check_mu_iso(dim_w: int, dim_v: int) -> bool:
    """Verify mu and its basis-built inverse compose to the identity both ways.

    The inverse is defined on the product basis: the pair ``(e_i (x) e_j, 0)``
    pulls back to ``embed(e_i) (x) embed(e_j)`` and ``(0, e_i (x) e_j)`` to
    ``embed(e_i) (x) (0, e_j)``, then extends complex-linearly.  On simple
    tensors both composites are computed explicitly.
    """
    ok = True
    eye_w = np.eye(dim_w)
    eye_v = np.eye(dim_v)
    for i in range(dim_w):
        for j in range(dim_v):
            ei, ej = eye_w[i], eye_v[j]
            target = np.kron(ei, ej)
            zero = np.zeros_like(target)
            # forward on the pulled-back simple tensors
            fwd_re = pair_kron(embed(ei), embed(ej))
            ok &= _pair_residual(fwd_re, PairVector(target, zero)) <= COHERENCE_ATOL
            fwd_im = pair_kron(embed(ei), PairVector(np.zeros_like(ej), ej))
            ok &= _pair_residual(fwd_im, PairVector(zero, target)) <= COHERENCE_ATOL
            # inverse after forward, in coordinates: both basis tensors return
            coord = np.kron(ei.astype(complex), ej.astype(complex))
            ok &= max_abs(pair_to_coord(fwd_re) - coord) <= COHERENCE_ATOL
            ok &= max_abs(pair_to_coord(fwd_im) - 1j * coord) <= COHERENCE_ATOL
    return ok


def monoidal_coherence(
    dim_w: int,
    dim_v: int,
    trials: int = 50,
    seed: int = 0,
    dim_z: int = 2,
) -> CoherenceReport:
    """Numerically verify the monoidal coherence of the complexification.

    Checks, on ``trials`` random real maps and random simple tensors:

    * the unit map is a complex-linear isomorphism,
    * the multiplication is an isomorphism with its basis-built inverse,
    * naturality: complexifying ``f (x) g`` after multiplying agrees with
      multiplying after ``C(f) (x) C(g)``,
    * the associativity square and both unitality triangles.

    All residuals are entrywise max-norm on pair encodings.
    """
    if dim_w < 1 or dim_v < 1 or dim_z < 1:
        raise DimensionError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)

    epsilon_iso = _check_epsilon(rng)
    mu_iso = _check_mu_iso(dim_w, dim_v)

    naturality = 0.0
    associativity = 0.0
    unitality = 0.0
    for _ in range(trials):
        # naturality: random codomain dims keep the check honest
        f = rng.uniform(-1, 1, (rng.integers(1, 4), dim_w))
        g = rng.uniform(-1, 1, (rng.integers(1, 4), dim_v))
        p, q = _random_pair(rng, dim_w), _random_pair(rng, dim_v)
        via_product = apply_complexified(np.kron(f, g), pair_kron(p, q))
        via_factors = pair_kron(apply_complexified(f, p), apply_complexified(g, q))
        naturality = max(naturality, _pair_residual(via_product, via_factors))

        # associativity: both bracketings of a triple tensor
        a, b, c = _random_pair(rng, dim_w), _random_pair(rng, dim_v), _random_pair(rng, dim_z)
        left = pair_kron(a, pair_kron(b, c))
        right = pair_kron(pair_kron(a, b), c)
        associativity = max(associativity, _pair_residual(left, right))

        # unitality: multiplying with an embedded scalar equals scalar action
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        alpha_pair = _unit(alpha)
        scaled = scalar_mul(alpha, a)
        unitality = max(unitality, _pair_residual(pair_kron(alpha_pair, a), scaled))
        unitality = max(unitality, _pair_residual(pair_kron(a, alpha_pair), scaled))

    return CoherenceReport(
        epsilon_iso=bool(epsilon_iso),
        mu_iso=bool(mu_iso),
        naturality_max_residual=naturality,
        associativity_max_residual=associativity,
        unitality_max_residual=unitality,
        seed=seed,
    )
