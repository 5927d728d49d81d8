"""The Kirkwood-Dirac family of complex-valued distributions.

Fixing two orthonormal bases ``a`` and ``b`` of a ``d``-dimensional Hilbert
space, the distribution of an operator is the ``d x d`` table

    ``mu[a, b] = <a| rho |b> <b| a>``

whose entries sum to ``Tr(rho)``.  When every overlap ``<a|b>`` is nonzero
(the faithful case) the table arises from the frame ``F_ab = |a><b| <a|b>``
with canonical dual ``G_ab = |a><b| / <b|a>``, a biorthogonal basis of the
operator space, and extends to a functorial representation of channels.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFaithfulBasesError
from .frames import DualPair, Frame
from .linalg import as_cmat, haar_unitary, max_abs

__all__ = [
    "KdBases",
    "OVERLAP_FLOOR",
    "UNITARITY_ATOL",
    "kd_distribution",
    "kd_frame_pair",
    "preset_bases",
    "random_faithful_bases",
]

# Overlaps at or below this magnitude count as zero: the dual elements carry
# 1/<b|a> and would blow up numerically past it.
OVERLAP_FLOOR = 1e-10
# Entrywise ceiling of ``B† B - I`` for a basis matrix to count as unitary.
UNITARITY_ATOL = 1e-7
# Haar rotations are faithful with probability one, so running out of draws
# means the generator is degenerate, not unlucky.
RANDOM_BASES_MAX_DRAWS = 1000


class KdBases:
    """An ordered pair of orthonormal bases, stored as unitary column matrices.

    The overlap table ``overlaps[a, b] = <a|b>`` is precomputed; the pair is
    ``faithful`` when every overlap magnitude exceeds the floor, which is the
    condition for the associated frame to exist.
    """

    def __init__(self, basis_a, basis_b, a_labels=None, b_labels=None):
        a = as_cmat(basis_a, square=True)
        b = as_cmat(basis_b, square=True)
        if a.shape != b.shape:
            raise DimensionError("both bases must have the same dimension")
        d = a.shape[0]
        if d < 1:
            raise DimensionError(f"bases need d >= 1, got {d}")
        for name, m in (("a", a), ("b", b)):
            if max_abs(m.conj().T @ m - np.eye(d)) > UNITARITY_ATOL:
                raise ValueError(f"basis {name} is not unitary")
        self.dim = d
        self.basis_a = a
        self.basis_b = b
        self.a_labels = tuple(a_labels) if a_labels else tuple(str(i) for i in range(d))
        self.b_labels = tuple(b_labels) if b_labels else tuple(str(i) for i in range(d))
        self.overlaps = a.conj().T @ b
        self.faithful = bool(np.all(np.abs(self.overlaps) > OVERLAP_FLOOR))


def kd_distribution(kb: KdBases, rho) -> np.ndarray:
    """The distribution table of ``rho``: rows over ``a``, columns over ``b``.

    Defined for any basis pair, faithful or not; the entries sum to
    ``Tr(rho)`` by completeness of both bases.
    """
    rho = as_cmat(rho, square=True)
    if rho.shape[0] != kb.dim:
        raise DimensionError(f"state dim {rho.shape[0]} != bases dim {kb.dim}")
    return (kb.basis_a.conj().T @ rho @ kb.basis_b) * kb.overlaps.conj()


def kd_frame_pair(kb: KdBases) -> DualPair:
    """Frame ``F_ab = |a><b| <a|b>`` and dual ``G_ab = |a><b| / <b|a>``.

    The index runs row-major over ``(a, b)``; the pair is biorthogonal, and
    representing a state with it reproduces :func:`kd_distribution` entry by
    entry under the same flattening.

    Raises:
        NonFaithfulBasesError: when some overlap vanishes (to the floor).
    """
    if not kb.faithful:
        smallest = float(np.min(np.abs(kb.overlaps)))
        raise NonFaithfulBasesError(
            f"bases are not faithful: smallest overlap {smallest:.3e} <= {OVERLAP_FLOOR:.0e}"
        )
    d = kb.dim
    # ket_bras[a, b] = |a><b|, the outer product of column a and conjugated column b
    ket_bras = kb.basis_a.T[:, None, :, None] * kb.basis_b.T.conj()[None, :, None, :]
    overlaps = kb.overlaps[:, :, None, None]
    labels = [f"({a},{b})" for a in kb.a_labels for b in kb.b_labels]
    frame = Frame((ket_bras * overlaps).reshape(d * d, d, d), labels=labels)
    dual = Frame((ket_bras / overlaps.conj()).reshape(d * d, d, d), labels=labels)
    return DualPair(frame, dual)


def preset_bases(name: str, d: int) -> KdBases:
    """Named basis pairs for the CLI and tests.

    ``computational``: both bases standard (not faithful for d > 1);
    ``hadamard``: standard vs the +/- basis (d = 2 only);
    ``fourier``: standard vs the discrete Fourier basis (faithful, any d).
    """
    if d < 1:
        raise DimensionError(f"preset bases need d >= 1, got {d}")
    eye = np.eye(d, dtype=complex)
    if name == "computational":
        return KdBases(eye, eye)
    if name == "hadamard":
        if d != 2:
            raise DimensionError("hadamard preset is defined for d = 2")
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        return KdBases(eye, h, b_labels=("+", "-"))
    if name == "fourier":
        omega = np.exp(2j * np.pi / d)
        f = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)
        return KdBases(eye, f, b_labels=tuple(f"f{k}" for k in range(d)))
    raise ValueError(f"unknown bases preset {name!r}")


def random_faithful_bases(d: int, seed: int = 0) -> KdBases:
    """Standard basis against a Haar-random rotation, resampled until faithful."""
    rng = np.random.default_rng(seed)
    eye = np.eye(d, dtype=complex)
    for _ in range(RANDOM_BASES_MAX_DRAWS):
        kb = KdBases(eye, haar_unitary(d, rng))
        if kb.faithful:
            return kb
    raise NonFaithfulBasesError(f"no faithful rotation found in {RANDOM_BASES_MAX_DRAWS} draws")
