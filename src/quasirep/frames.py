"""Frame representation theory for operator spaces.

A frame is an indexed family ``{F_l}`` of ``d x d`` complex matrices whose
span is the full operator space.  Together with a dual family ``{G_l}`` it
represents states by ``mu_l = Tr(F_l† X)``, effects by ``xi_l = Tr(E† G_l)``
and channels by ``Gamma[l_out, l_in] = Tr(F_out† E(G_in))``, and reconstructs
any operator as ``X = sum_l mu_l G_l``.  States and effects are represented
through :class:`~quasirep.structure.Representation`, which holds a pair as
two matrices (:meth:`~quasirep.structure.SystemSlot.from_pair`).  The canonical dual
is obtained by inverting the frame operator ``S(A) = sum_l Tr(A† F_l) F_l``.
Representations of the identity channel are idempotent matrices; they equal
the identity exactly when frame and dual are biorthogonal.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ReconstructionError, SingularFrameError
from .linalg import (
    MAX_QUANTUM_DIM,
    as_cstack,
    cmat_from_json,
    cmat_to_json,
    max_abs,
    numerical_rank,
)

__all__ = [
    "Frame",
    "DualPair",
    "Channel",
    "channel_stack",
    "frame_operator",
    "canonical_dual",
    "represent_channel",
    "random_frame",
    "identity_channel",
    "frame_to_json",
    "frame_from_json",
]

# Dual pairs are validated against the reconstruction identity at this
# entrywise threshold (the canonical dual of a mildly conditioned frame sits
# orders of magnitude below it).
RECONSTRUCTION_ATOL = 1e-9
# Validated channels may exceed trace preservation (the largest eigenvalue of
# ``sum K†K - I``) by at most this much.
TRACE_EXCESS_ATOL = 1e-8
# Ginibre families of at least d**2 elements span with probability one, so
# running out of draws means the generator is degenerate, not unlucky.
RANDOM_FRAME_MAX_DRAWS = 100


class Frame:
    """An indexed family of ``d x d`` complex matrices.

    ``elements`` is one read-only ``(n, d, d)`` complex array, copied from
    the input (any sequence of equally shaped square matrices, or such a
    stack); ``vec_matrix`` is a view into it.
    The labels, one per element, must be distinct.
    Non-spanning families are representable (and reported by
    :meth:`is_spanning`); operations that need a dual reject them.
    """

    def __init__(self, elements, labels=None):
        stack = as_cstack(elements, square=True)
        n, d, _ = stack.shape
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DimensionError("one label per frame element required")
        if len(set(labels)) != n:
            raise DimensionError("frame labels must be distinct")
        self.dim = d
        self.labels = labels
        self.elements = stack
        # rows are vec(F_l); Tr(F_l† X) = vec_matrix.conj() @ vec(X)
        self.vec_matrix = stack.reshape(n, -1)

    def __len__(self) -> int:
        return len(self.elements)

    def spanning_rank(self) -> int:
        return numerical_rank(self.vec_matrix)

    def is_spanning(self) -> bool:
        return self.spanning_rank() == self.dim**2


class DualPair:
    """A frame together with a dual family reconstructing every operator.

    The construction checks ``sum_l vec(G_l) vec(F_l)† == identity`` (an exact
    basis check of the reconstruction identity, equivalent by linearity to
    reconstructing every operator).  Pass ``validate=False`` to hold an
    unverified pair, e.g. to audit a deliberately broken dual.
    """

    def __init__(self, frame: Frame, dual: Frame, validate: bool = True):
        if dual.dim != frame.dim:
            raise DimensionError("frame and dual live on different spaces")
        if len(dual) != len(frame):
            raise DimensionError("frame and dual must share the index set")
        self.frame = frame
        self.dual = dual
        reconstruction = np.einsum("li,lj->ij", dual.vec_matrix, frame.vec_matrix.conj())
        self.reconstruction_residual = max_abs(reconstruction - np.eye(frame.dim**2))
        if validate and self.reconstruction_residual > RECONSTRUCTION_ATOL:
            raise ReconstructionError(
                f"reconstruction identity fails: residual "
                f"{self.reconstruction_residual:.3e} > {RECONSTRUCTION_ATOL:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def labels(self) -> tuple:
        return self.frame.labels


class Channel:
    """One Kraus family ``(n, d_out, d_in)`` and its superoperator.

    ``kraus`` is a read-only complex copy of the input (any sequence of
    equally shaped matrices, or such a stack); ``superop`` is derived from
    it once by :func:`channel_stack`, which also rejects, with
    ``validate``, a family that increases the trace.  Every channel
    operation acts on ``superop``: composition is its matrix product, the
    action on an operator is ``superop @ vec(x)``.
    """

    def __init__(self, kraus, validate: bool = True):
        # read-only, so the superoperator stays in step with it
        self.kraus = as_cstack(kraus)
        _, self.d_out, self.d_in = self.kraus.shape
        self.superop = channel_stack(self.kraus, validate)[0]


def channel_stack(kraus, validate: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Superoperators and grams of Kraus families ``(..., n, d_out, d_in)``.

    Each superoperator is ``sum_e kron(K_e, conj(K_e))``, acting on row-major
    vectorizations.  It is formed as one batched product over the Kraus
    index: the Choi matrix ``sum_e vec(K_e) vec(K_e)†``, realigned from
    ``(out, in), (out', in')`` to ``(out, out'), (in, in')`` order.  Each
    gram is ``sum_e K_e† K_e``.  With ``validate``, no family may increase
    the trace: the largest eigenvalue of ``gram - I`` must be at most
    ``TRACE_EXCESS_ATOL``.  The Gershgorin bound on it clears most stacks;
    one batched eigenvalue call decides the rest.  A :class:`Channel` is this
    on a single family.

    Returns:
        ``(superops, grams)`` of shapes ``(..., d_out**2, d_in**2)`` and
        ``(..., d_in, d_in)``.

    Raises:
        ValueError: if ``validate`` and some family increases the trace.
    """
    kraus = np.asarray(kraus)
    *batch, n, d_out, d_in = kraus.shape
    # one copy of a strided stack, and one conjugate, serve both products
    vecs = kraus.reshape(*batch, n, d_out * d_in)
    conj = vecs.conj()
    choi = np.swapaxes(vecs, -1, -2) @ conj
    superops = choi.reshape(*batch, d_out, d_in, d_out, d_in).swapaxes(-3, -2)
    flat, conj_flat = (m.reshape(*batch, n * d_out, d_in) for m in (vecs, conj))
    grams = np.swapaxes(conj_flat, -1, -2) @ flat
    if validate:
        eye = np.eye(d_in)
        h = grams - eye
        # Gershgorin: no eigenvalue of a Hermitian h exceeds max_i (Re h_ii + sum_{j != i} |h_ij|)
        radii = np.where(eye, 0.0, np.abs(h)).sum(-1)
        bound = (np.diagonal(h, axis1=-2, axis2=-1).real + radii).max()
        if not bound <= TRACE_EXCESS_ATOL:
            excess = np.linalg.eigvalsh(h).max()
            if not excess <= TRACE_EXCESS_ATOL:
                raise ValueError(f"channel increases trace by up to {excess:.3e}")
    return superops.reshape(*batch, d_out**2, d_in**2), grams


def identity_channel(d: int) -> Channel:
    return Channel([np.eye(d)])


def frame_operator(f: Frame) -> np.ndarray:
    """Superoperator matrix of ``S(A) = sum_l Tr(A† F_l) F_l``.

    Always self-adjoint and positive semidefinite; invertible exactly when
    the frame spans.
    """
    v = f.vec_matrix
    return np.einsum("li,lj->ij", v, v.conj())


def canonical_dual(f: Frame) -> DualPair:
    """Dual pair with ``G_l = S^{-1}(F_l)``.

    Raises:
        SingularFrameError: if the frame does not span the operator space
            (the frame operator is then singular and no dual exists).
    """
    s = frame_operator(f)
    rank = f.spanning_rank()
    if rank < f.dim**2:
        raise SingularFrameError(
            f"frame spans only {rank} of {f.dim**2} dimensions; no canonical dual"
        )
    dual_vecs = np.linalg.solve(s, f.vec_matrix.T).T
    dual = Frame(dual_vecs.reshape(len(f), f.dim, f.dim), labels=f.labels)
    return DualPair(f, dual)


def represent_channel(pair_out: DualPair, pair_in: DualPair, ch: Channel) -> np.ndarray:
    """Channel matrix ``Gamma[l_out, l_in] = Tr(F_out† E(G_in))``.

    Multiplicative over sequential composition whenever the intermediate
    system keeps a single pair; the image of the identity channel is the
    frame/dual overlap matrix, an idempotent.
    """
    if ch.d_in != pair_in.dim or ch.d_out != pair_out.dim:
        raise DimensionError(
            f"channel {ch.d_in}->{ch.d_out} does not match pairs "
            f"{pair_in.dim}->{pair_out.dim}"
        )
    return pair_out.frame.vec_matrix.conj() @ ch.superop @ pair_in.dual.vec_matrix.T


def random_frame(d: int, size: int, rng: np.random.Generator) -> Frame:
    """A spanning frame of ``size >= d**2`` Ginibre-random elements.

    Each attempt is one ``(size, 2, d, d)`` normal draw: per element its
    real part, then its imaginary part.

    Raises:
        SingularFrameError: if no draw spans within ``RANDOM_FRAME_MAX_DRAWS``.
    """
    if size < d**2:
        raise DimensionError(f"need at least {d**2} elements to span, got {size}")
    for _ in range(RANDOM_FRAME_MAX_DRAWS):
        g = rng.standard_normal((size, 2, d, d))
        frame = Frame((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
        if frame.is_spanning():
            return frame
    raise SingularFrameError(f"no spanning frame found in {RANDOM_FRAME_MAX_DRAWS} draws")


def frame_to_json(frame: Frame, dual: Frame | None = None) -> dict:
    data = {
        "d": frame.dim,
        "labels": list(frame.labels),
        "elements": [cmat_to_json(e) for e in frame.elements],
    }
    if dual is not None:
        data["dual"] = [cmat_to_json(e) for e in dual.elements]
    return data


def frame_from_json(data: dict) -> Frame | DualPair:
    """Parse a frame file; returns a DualPair when a dual family is present.

    A stored dual is taken as is, so that broken pairs load for auditing.
    ``d`` must be a JSON integer ``<= MAX_QUANTUM_DIM``, checked first, and
    the labels a list of strings, as :func:`frame_to_json` writes them.
    """
    try:
        d, labels = data["d"], data["labels"]
        if type(d) is not int:
            raise TypeError(f"d must be an integer, got {d!r}")
        if d > MAX_QUANTUM_DIM:
            raise DimensionError(f"frame file dim must be <= {MAX_QUANTUM_DIM}, got {d}")
        if type(labels) is not list or not set(map(type, labels)) <= {str}:
            raise TypeError("labels must be a list of strings")
        elements = [cmat_from_json(e) for e in data["elements"]]
        dual = data.get("dual")
        if dual is not None:
            dual = [cmat_from_json(e) for e in dual]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed frame record: {exc}") from exc
    frame = Frame(elements, labels=labels)
    if frame.dim != d:
        raise DimensionError("declared dimension does not match elements")
    if dual is not None:
        return DualPair(frame, Frame(dual, labels=labels), validate=False)
    return frame

