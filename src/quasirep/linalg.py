"""Dense complex linear algebra substrate shared by every module.

Conventions fixed here and relied on everywhere else:

* Matrices are dense ``numpy`` arrays of dtype ``complex128`` (real inputs are
  promoted).  All entries must be finite.
* Vectorization is **row-major**: ``vectorize(A)[i * cols + j] == A[i, j]``.
  With this choice ``vectorize(A @ X @ B) == kron(A, B.T) @ vectorize(X)`` and
  ``Tr(F† X) == vectorize(F).conj() @ vectorize(X)``.
* Numerical rank uses the relative threshold ``RANK_RTOL * sigma_max`` on
  singular values.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "MAX_QUANTUM_DIM",
    "RANK_RTOL",
    "as_cmat",
    "as_cstack",
    "max_abs",
    "vectorize",
    "rank_range",
    "numerical_rank",
    "haar_unitary",
    "haar_isometries",
    "cmat_to_json",
    "cmat_from_json",
]


# The largest Hilbert-space dimension of a quantum system; its square bounds
# every other size (classical outcomes, coherence dimensions).
MAX_QUANTUM_DIM = 8
# Singular values at or below this fraction of the largest count as zero in
# every rank decision.
RANK_RTOL = 1e-8


def as_cmat(a, *, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex array, validating shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_cstack(items, *, square: bool = False) -> np.ndarray:
    """Copy equally shaped matrices into one read-only ``(n, rows, cols)``
    complex stack, validated as :func:`as_cmat` validates one matrix.

    ``items`` is a sequence of matrices or a stack.  When the matrices have
    different shapes, the first malformed one reports itself.
    """
    try:
        stack = np.array(items, dtype=complex)
    except ValueError:
        for item in items:
            as_cmat(item, square=square)
        raise DimensionError("all matrices must share one shape") from None
    if stack.shape[:1] == (0,):
        raise DimensionError("expected at least one matrix")
    if stack.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {stack.shape}")
    if square and stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"expected square matrices, got shape {stack.shape[1:]}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix entries must be finite")
    stack.flags.writeable = False
    return stack


def max_abs(a) -> float:
    """Largest entry magnitude; the max norm used by every residual check."""
    arr = np.asarray(a)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def vectorize(a) -> np.ndarray:
    """Row-major stacking of a matrix into a vector."""
    return as_cmat(a).reshape(-1).copy()


def rank_range(a) -> tuple[int, np.ndarray, np.ndarray]:
    """Numerical rank, orthonormal range basis and Moore-Penrose inverse.

    Singular values at or below ``RANK_RTOL * sigma_max`` are treated as zero.
    A zero matrix yields rank 0, an empty basis and a zero pseudo-inverse.

    Returns:
        ``(rank, range_basis, pseudo_inverse)`` where ``range_basis`` holds
        ``rank`` orthonormal columns spanning the image of ``a`` and the
        pseudo-inverse satisfies the four Moore-Penrose identities.
    """
    m = as_cmat(a)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cut = RANK_RTOL * s[0] if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > cut))
    basis = u[:, :rank]
    if rank:
        pinv = (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T
    else:
        pinv = np.zeros((m.shape[1], m.shape[0]), dtype=complex)
    return rank, basis, pinv


def numerical_rank(a) -> int:
    """Rank of ``a`` under the package-wide singular-value threshold."""
    return rank_range(a)[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fix."""
    return haar_isometries(rng.standard_normal((2, dim, dim)))


def haar_isometries(normals) -> np.ndarray:
    """Phase-fixed Q factors of Ginibre matrices given by their normal draws.

    ``normals`` has shape ``(..., 2, rows, cols)``: real and imaginary parts
    of each ``rows x cols`` Ginibre matrix, ``rows >= cols``.  Each is
    QR-factored (one batched call for a stack) and the phases of ``R``'s
    diagonal are moved into ``Q``, which makes the isometry Haar-distributed.
    """
    q, r = np.linalg.qr((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2))
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases.conj()[..., None, :]


def cmat_to_json(a) -> dict:
    """Serialize a complex matrix as ``{"rows", "cols", "re", "im"}``.

    Entries are flattened row-major; the format is shared by every module.
    """
    m = as_cmat(a)
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def cmat_from_json(data: dict) -> np.ndarray:
    """Parse the matrix format produced by :func:`cmat_to_json`.

    ``rows`` and ``cols`` must be JSON integers and the entries JSON numbers:
    a string, boolean or null is rejected, not converted.
    """
    try:
        rows, cols, re, im = data["rows"], data["cols"], data["re"], data["im"]
        if type(rows) is not int or type(cols) is not int:
            raise TypeError(f"rows and cols must be integers, got {rows!r} and {cols!r}")
        if not set(map(type, re)) | set(map(type, im)) <= {int, float}:
            raise TypeError("entries must be numbers")
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix record: {exc}") from exc
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise DimensionError("entry count does not match rows * cols")
    # assigned, not re + 1j * im: 1j * inf warns before as_cmat can reject it
    m = np.empty(rows * cols, dtype=complex)
    m.real, m.imag = re, im
    return as_cmat(m.reshape(rows, cols))
