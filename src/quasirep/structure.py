"""Structure analysis of complex-valued representations.

A :class:`Representation` assigns to each system an index set and a pair of
matrices: a state side mapping coordinates to coefficient vectors and an
effect side mapping coefficients back.  For quantum systems both come from a
frame/dual pair; the classical delta-basis assignment uses identity slots.

The engine extracts, per system,

* ``chi``: the map fixed by the action on spanning states alone,
  ``chi = sum_ij t_ij (state image)_i (complexified effect)_j``,
* ``phi``: the corestricted inverse of ``chi`` composed with the image ``D``
  of the identity process,

and verifies that every represented process factors as
``Gamma(T) = chi_out @ C(T) @ phi_in`` where ``C(T)`` is the complexified
coordinate matrix of ``T``.  Idempotent splittings and their uniqueness up
to a unique intertwiner are handled by :func:`split_idempotent` and
:func:`splitting_isomorphism`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexify import complexify_map
from .errors import (
    DimensionError,
    InjectivityError,
    NonIdempotentError,
    SplittingMismatchError,
)
from .frames import DualPair, Frame, channel_stack
from .gpt import (
    GptSystem, channel_block_shape, density_stack, effect_stack, process_matrices, random_kraus,
)
from .linalg import as_cmat, max_abs, rank_range

__all__ = [
    "SystemSlot",
    "Representation",
    "ChiPhi",
    "AuditReport",
    "build_representation",
    "extract_chi",
    "extract_phi",
    "effect_sum_phi",
    "extract_chi_phi",
    "split_idempotent",
    "splitting_isomorphism",
    "verify_decomposition",
    "audit_representation",
    "frames_from_chi_phi",
]

# Residual ceilings used by representation validation and audit verdicts.
IDEMPOTENCY_ATOL = 1e-9
SEMIFUNCTORIAL_ATOL = 1e-9
ADEQUACY_ATOL = 1e-10
LINEARITY_ATOL = 1e-9
DISCARD_ATOL = 1e-9
DECOMPOSITION_ATOL = 1e-8
# The audit draws, builds and checks at most this many trials at once, so its
# memory does not grow with the trial count.
AUDIT_BLOCK_TRIALS = 64


class SystemSlot:
    """Per-system representation data: index labels plus both map matrices.

    ``rep`` maps complex coordinates to coefficients and ``recon`` maps them
    back; a frame/dual pair gives its conjugated frame rows and dual columns.
    """

    def __init__(self, labels, rep_matrix, recon_matrix):
        self.labels = tuple(labels)
        self.rep = as_cmat(rep_matrix)
        self.recon = as_cmat(recon_matrix)
        if self.rep.shape[0] != len(self.labels) or self.recon.shape[1] != len(self.labels):
            raise DimensionError("matrix sizes do not match the index set")
        if self.rep.shape[1] != self.recon.shape[0]:
            raise DimensionError("state and effect sides act on different spaces")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def coord_dim(self) -> int:
        """Complex dimension of the system's complexified coordinate space."""
        return self.rep.shape[1]

    @classmethod
    def from_pair(cls, pair: DualPair) -> "SystemSlot":
        return cls(pair.labels, pair.frame.vec_matrix.conj(), pair.dual.vec_matrix.T)

    @classmethod
    def classical(cls, n: int) -> "SystemSlot":
        eye = np.eye(n, dtype=complex)
        return cls([str(i) for i in range(n)], eye, eye)

    def id_image(self) -> np.ndarray:
        return self.rep @ self.recon


class Representation:
    """A per-system assignment of slots, applied to channels and processes."""

    def __init__(self, slots: dict[str, SystemSlot], validate: bool = True):
        if not slots:
            raise DimensionError("a representation needs at least one system")
        self.slots = dict(slots)
        if validate:
            for name, slot in self.slots.items():
                d = slot.id_image()
                residual = max_abs(d @ d - d)
                if residual > IDEMPOTENCY_ATOL:
                    raise NonIdempotentError(
                        f"identity image on system {name!r} is not idempotent "
                        f"(residual {residual:.3e})"
                    )

    def slot(self, system: str) -> SystemSlot:
        try:
            return self.slots[system]
        except KeyError:
            raise KeyError(f"representation is not defined on system {system!r}") from None

    def id_image(self, system: str) -> np.ndarray:
        return self.slot(system).id_image()

    def represent_state(self, system: str, x) -> np.ndarray:
        """Coefficient vector ``rep @ vec(x)`` of a state (operator or vector),
        or one row per operator of a ``(..., d, d)`` stack."""
        slot = self.slot(system)
        return (slot.rep @ _coord_vectors(slot, x)[..., None])[..., 0]

    def represent_effect(self, system: str, e) -> np.ndarray:
        """Covector ``conj(vec(e)) @ recon``; conjugate-linear in ``e``.
        Stacks of operators give one covector per operator."""
        slot = self.slot(system)
        return (_coord_vectors(slot, e)[..., None, :].conj() @ slot.recon)[..., 0, :]

    def apply(self, system_in: str, system_out: str, process) -> np.ndarray:
        """Representation matrix ``rep_out @ M @ recon_in`` of a process.

        ``M`` is a process matrix on the coordinate spaces, such as a
        channel superoperator from :func:`~quasirep.frames.channel_stack`,
        or a ``(B, out, in)`` stack of them (giving a stack of
        representation matrices); a mismatched shape raises
        :class:`DimensionError`.
        """
        slot_in = self.slot(system_in)
        slot_out = self.slot(system_out)
        m = np.asarray(process, dtype=complex)
        if m.ndim not in (2, 3):
            raise DimensionError(f"expected a process matrix or a stack, got ndim={m.ndim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("process entries must be finite")
        if m.shape[-2:] != (slot_out.coord_dim, slot_in.coord_dim):
            raise DimensionError(
                f"process matrix {m.shape[-2:]} does not map the coordinate spaces "
                f"{slot_in.coord_dim} -> {slot_out.coord_dim}"
            )
        return slot_out.rep @ m @ slot_in.recon


def _coord_vectors(slot: SystemSlot, x) -> np.ndarray:
    """Row-major flattening (the ``vectorize`` convention), size-checked: of
    ``x`` itself for an operator or vector, of each operator of a stack."""
    v = np.asarray(x, dtype=complex)
    v = v.reshape(v.shape[:-2] + (-1,)) if v.ndim > 2 else v.reshape(-1)
    if v.shape[-1] != slot.coord_dim:
        raise DimensionError(f"input size {v.shape[-1]} != coordinate dimension {slot.coord_dim}")
    return v


def build_representation(assignment: dict[str, DualPair], validate: bool = True) -> Representation:
    """Representation induced by a frame/dual pair on each system."""
    return Representation(
        {name: SystemSlot.from_pair(pair) for name, pair in assignment.items()},
        validate=validate,
    )


def _complexified_state_coords(sys: GptSystem) -> np.ndarray:
    """Columns: spanning states in complex coordinates (``iso @ real coords``)."""
    return sys.iso @ sys.states.T


def _complexified_effect_rows(sys: GptSystem, effects: np.ndarray) -> np.ndarray:
    """Rows: real effect covectors on complex coordinates (``vec(E.T)`` for quantum)."""
    return effects @ sys.iso.conj().T


def extract_chi(rep: Representation, sys: GptSystem) -> np.ndarray:
    """The state map ``chi`` recovered from the action on spanning states.

    ``chi = sum_ij t_ij m_i c_j`` with ``m_i`` the represented states (as
    columns) and ``c_j`` the complexified effect functionals (as rows); by
    the identity resolution it satisfies ``chi @ coords(s) == rep(s)`` for
    every state.
    """
    images = rep.slot(sys.label).rep @ _complexified_state_coords(sys)  # |Lambda| x n_states
    effect_rows = _complexified_effect_rows(sys, sys.effects)          # n_effects x D
    return images @ sys.t.astype(complex) @ effect_rows


def extract_phi(rep: Representation, sys: GptSystem, chi: np.ndarray | None = None) -> np.ndarray:
    """The effect map ``phi`` fixed by ``chi`` and the identity image.

    Implemented as the Moore-Penrose inverse of ``chi`` (equal to the inverse
    of its surjective corestriction on the range) composed with ``D``.

    Raises:
        InjectivityError: if ``chi`` is rank-deficient, so no corestricted
            inverse exists.
    """
    if chi is None:
        chi = extract_chi(rep, sys)
    slot = rep.slot(sys.label)
    rank, _, pinv = rank_range(chi)
    if rank < slot.coord_dim:
        raise InjectivityError(
            f"state map has rank {rank} < {slot.coord_dim}; not injective"
        )
    return pinv @ slot.id_image()


def effect_sum_phi(rep: Representation, sys: GptSystem) -> np.ndarray:
    """Independent construction of ``phi`` from the action on effects:
    ``phi = sum_ij t_ij v_i xi_j`` with complexified state coordinates ``v_i``
    (columns) and represented effects ``xi_j`` (rows)."""
    coords = _complexified_state_coords(sys)
    # a real effect's row is the conjugate of its coordinates: row @ recon is xi
    xi_rows = _complexified_effect_rows(sys, sys.effects) @ rep.slot(sys.label).recon
    return coords @ sys.t.astype(complex) @ xi_rows


@dataclass(frozen=True, eq=False)
class ChiPhi:
    """Extracted pair of maps for one system, with its consistency residuals."""

    chi: np.ndarray
    phi: np.ndarray
    hilbert_dim: int
    labels: tuple

    def validate(self) -> None:
        """Check ``phi @ chi == I`` and that ``chi @ phi`` is idempotent.

        A left inverse makes ``chi`` injective; the rank itself is decided
        once, by :func:`extract_phi`, which rejects a rank-deficient ``chi``
        before any pair is built.
        """
        d2 = self.chi.shape[1]
        left = max_abs(self.phi @ self.chi - np.eye(d2))
        if left > SEMIFUNCTORIAL_ATOL:
            raise InjectivityError(f"phi is not a left inverse of chi (residual {left:.3e})")
        d = self.chi @ self.phi
        residual = max_abs(d @ d - d)
        if residual > IDEMPOTENCY_ATOL:
            raise NonIdempotentError(f"chi @ phi is not idempotent (residual {residual:.3e})")


def extract_chi_phi(rep: Representation, sys: GptSystem) -> ChiPhi:
    chi = extract_chi(rep, sys)
    phi = extract_phi(rep, sys, chi)
    pair = ChiPhi(chi=chi, phi=phi, hilbert_dim=sys.dim, labels=rep.slot(sys.label).labels)
    pair.validate()
    return pair


def split_idempotent(d_mat) -> tuple[np.ndarray, np.ndarray]:
    """Factor an idempotent as ``D = iota @ pi`` with ``pi @ iota = I_r``.

    ``iota`` holds an orthonormal basis of the image; since ``D`` acts as the
    identity on its image, ``pi = iota† @ D`` completes the splitting.

    Raises:
        NonIdempotentError: when ``D @ D`` differs from ``D`` beyond ``IDEMPOTENCY_ATOL``.
    """
    d_mat = as_cmat(d_mat, square=True)
    residual = max_abs(d_mat @ d_mat - d_mat)
    if residual > IDEMPOTENCY_ATOL:
        raise NonIdempotentError(f"matrix is not idempotent: residual {residual:.3e}")
    _, basis, _ = rank_range(d_mat)
    iota = basis
    pi = basis.conj().T @ d_mat
    return iota, pi


def splitting_isomorphism(
    s1: tuple[np.ndarray, np.ndarray],
    s2: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The unique intertwiner connecting two splittings of one idempotent.

    For splittings ``D = i1 @ p1 = i2 @ p2`` returns ``xi = p2 @ i1``, which
    satisfies ``i2 @ xi = i1``, ``xi @ p1 = p2`` and ``xi @ (p1 @ i2) = I``.

    Raises:
        SplittingMismatchError: if the two factorizations do not reproduce
            the same idempotent or the intertwining identities fail.
    """
    i1, p1 = as_cmat(s1[0]), as_cmat(s1[1])
    i2, p2 = as_cmat(s2[0]), as_cmat(s2[1])
    if i1.shape[0] != i2.shape[0]:
        raise DimensionError("splittings act on different spaces")
    gap = max_abs(i1 @ p1 - i2 @ p2)
    if gap > SEMIFUNCTORIAL_ATOL:
        raise SplittingMismatchError(f"factorizations split different idempotents (gap {gap:.3e})")
    xi = p2 @ i1
    checks = (
        max_abs(i2 @ xi - i1),
        max_abs(xi @ p1 - p2),
        max_abs(xi @ (p1 @ i2) - np.eye(xi.shape[0])),
    )
    worst = max(checks)
    if worst > SEMIFUNCTORIAL_ATOL:
        raise SplittingMismatchError(f"intertwining identities fail (residual {worst:.3e})")
    return xi


def _complexified_process(superops, sys_in: GptSystem, sys_out: GptSystem) -> np.ndarray:
    """``C(T)`` on the slots' complex coordinates, via the real route.

    Each channel superoperator of the stack is first expressed as a real
    matrix on the systems' real coordinates, then promoted entrywise and
    conjugated back by the coordinate isomorphisms.
    """
    t_real = process_matrices(superops, sys_in, sys_out)
    return sys_out.iso @ complexify_map(t_real) @ sys_in.iso.conj().T


def verify_decomposition(
    rep: Representation, sys_in: GptSystem, sys_out: GptSystem, channels
) -> float:
    """Largest residual of ``Gamma(T) = chi_out @ C(T) @ phi_in`` over ``channels``.

    Both sides are computed independently: the left through the frame inner
    products, the right through the extracted maps and the complexified
    real-coordinate matrix of each channel.
    """
    superops = [ch.superop for ch in channels]
    if not superops:
        return 0.0
    if len({m.shape for m in superops}) > 1:
        raise DimensionError("channels of different dimensions")
    return _decomposition_residual(
        rep, sys_in, sys_out, extract_chi(rep, sys_out), extract_phi(rep, sys_in), np.stack(superops)
    )


def _decomposition_residual(
    rep: Representation, sys_in: GptSystem, sys_out: GptSystem,
    chi_out: np.ndarray, phi_in: np.ndarray, superops: np.ndarray,
) -> float:
    """:func:`verify_decomposition` on a ``(B, out, in)`` superoperator stack,
    with the extracted maps supplied."""
    lhs = rep.apply(sys_in.label, sys_out.label, superops)
    rhs = chi_out @ _complexified_process(superops, sys_in, sys_out) @ phi_in
    return max_abs(lhs - rhs)


@dataclass(frozen=True)
class AuditReport:
    """Full property report for a representation; failures are data here."""

    semifunctorial: bool
    semifunctorial_residual: float
    empirically_adequate: bool
    adequacy_residual: float
    linear: bool
    linearity_residual: float
    discard_preserving: bool
    discard_residual: float
    functorial: bool
    decomposition_residual: float
    dim_check: bool
    seed: int
    trials: int

    @property
    def all_core_pass(self) -> bool:
        """The gating properties; discard preservation is reported only."""
        return (
            self.semifunctorial
            and self.empirically_adequate
            and self.linear
            and self.decomposition_residual <= DECOMPOSITION_ATOL
        )

    def to_json(self) -> dict:
        return {
            "semifunctorial": self.semifunctorial,
            "semifunctorial_residual": self.semifunctorial_residual,
            "empirically_adequate": self.empirically_adequate,
            "adequacy_residual": self.adequacy_residual,
            "linear": self.linear,
            "linearity_residual": self.linearity_residual,
            "discard_preserving": self.discard_preserving,
            "discard_residual": self.discard_residual,
            "functorial": self.functorial,
            "decomposition_residual": self.decomposition_residual,
            "dim_check": self.dim_check,
            "seed": self.seed,
            "trials": self.trials,
        }


def _discard_residual(rep: Representation, sys: GptSystem, chi: np.ndarray) -> float:
    """Deviation of the represented discard, ``ones @ chi``, from the summation functional."""
    ones = np.ones(rep.slot(sys.label).size, dtype=complex)
    return max_abs(ones @ chi - _complexified_effect_rows(sys, sys.u))


def _rows(rng, count: int, shapes: list, uniform: bool = False) -> list[np.ndarray]:
    """The next ``count`` rows of a role stream, in one call to its generator.

    A row holds consecutive blocks of ``shapes``; each block comes back as a
    ``(count, *shape)`` array.  Rows are standard normals, or with ``uniform``
    draws on ``[0, 1)`` (the values of ``uniform(0, 1)``).
    """
    sizes = [math.prod(shape) for shape in shapes]
    out = (rng.random if uniform else rng.standard_normal)((count, sum(sizes)))
    parts = np.split(out, np.cumsum(sizes)[:-1], axis=1)
    return [part.reshape(count, *shape) for part, shape in zip(parts, shapes)]


def _audit_block(
    rep: Representation, quantum: list[GptSystem], roles: list, count: int
) -> tuple[float, float, float]:
    """Semi-functoriality, adequacy and linearity residuals over a block of trials.

    ``roles`` holds the role streams in contract order (see
    :func:`audit_representation`); the block reads the next ``count`` rows
    of each trial role, one generator call per role.  A channel role is
    built for the whole block as one stack (a pair's two channels as one
    ``(B, 2, ...)`` stack), and each residual is taken over stacked
    products; only one triple's or pair's stacks are alive at a time.
    Residuals fold with a NaN-propagating maximum.
    """
    roles = iter(roles)
    semif = adequacy = linearity = 0.0
    for a, b, c in itertools.product(quantum, repeat=3):
        shapes = [channel_block_shape(a.dim, b.dim), channel_block_shape(b.dim, c.dim)]
        n1, n2 = _rows(next(roles), count, shapes)
        s1 = channel_stack(random_kraus(a.dim, b.dim, n1))[0]
        s2 = channel_stack(random_kraus(b.dim, c.dim, n2))[0]
        whole = rep.apply(a.label, c.label, s2 @ s1)
        product = rep.apply(b.label, c.label, s2) @ rep.apply(a.label, b.label, s1)
        semif = np.maximum(semif, max_abs(whole - product))

    for sys in quantum:
        rho_normals, eff_normals = _rows(next(roles), count, [(2, sys.dim, sys.dim)] * 2)
        rho = density_stack(rho_normals)
        eff = effect_stack(eff_normals, _rows(next(roles), count, [(sys.dim,)], uniform=True)[0])
        mu = rep.represent_state(sys.label, rho)
        xi = rep.represent_effect(sys.label, eff)
        gap = (xi[:, None, :] @ mu[:, :, None])[:, 0, 0] - np.trace(eff @ rho, axis1=1, axis2=2)
        # hypot is the scalar complex abs; the array abs may differ in the last bit
        adequacy = np.maximum(adequacy, np.hypot(gap.real, gap.imag).max())

    for a, b in itertools.product(quantum, repeat=2):
        both = (2, *channel_block_shape(a.dim, b.dim))
        kraus = random_kraus(a.dim, b.dim, _rows(next(roles), count, [both])[0])
        w = _rows(next(roles), count, [(1, 1)], uniform=True)[0]
        superops = channel_stack(kraus)[0].reshape(-1, b.dim**2, a.dim**2)
        gamma = rep.apply(a.label, b.label, superops)
        g1, g2 = gamma[0::2], gamma[1::2]
        # the mixture's Kraus family: sqrt(w) K1, then sqrt(1 - w) K2
        scales = np.sqrt(np.concatenate([w, 1 - w], axis=1))[..., None, None]
        mixture = (scales * kraus).reshape(count, -1, b.dim, a.dim)
        mixed = rep.apply(a.label, b.label, channel_stack(mixture)[0])
        linearity = np.maximum(linearity, max_abs(mixed - (w * g1 + (1 - w) * g2)))
    return semif, adequacy, linearity


def audit_representation(
    rep: Representation,
    systems: list[GptSystem],
    trials: int = 20,
    seed: int = 0,
) -> AuditReport:
    """Sample-based audit of every defining property of a representation.

    Failures never raise; they surface as report fields.  Malformed input
    does raise: a system listed twice (``ValueError``) or a slot whose
    coordinate space differs from its system's (``DimensionError``).

    Semi-functoriality represents the composed superoperator ``S2 @ S1``
    against ``Gamma(T2) @ Gamma(T1)``, which tests reconstruction on the
    intermediate system; linearity represents the mixture built from the
    Kraus family ``{sqrt(w) K1, sqrt(1 - w) K2}`` against the weighted sum.

    Sampling contract (what makes a report a function of ``seed`` and
    ``trials`` alone, however the work is batched): every run of same-kind
    draws is a *role* with a stream of its own.  With ``S`` quantum systems
    the roles are, in this order:

    1. for each triple ``(a, b, c)`` of quantum systems, in nested order,
       the normal blocks of ``T1: a -> b`` and ``T2: b -> c``;
    2. for each quantum system, the state and effect normals (two ``(2, d,
       d)`` blocks), then the effect weights (``d`` uniforms);
    3. for each pair ``(a, b)``, the normal blocks of the two channels, then
       the weight ``w`` (one uniform);
    4. for each pair ``(a, b)``, the decomposition channels.

    Role ``k`` reads ``default_rng(SeedSequence(seed).spawn(n)[k])``, where
    ``n = S**3 + 2 S + 3 S**2`` whatever ``trials`` is.  Trial ``t`` takes
    row ``t`` of each trial role (items 1-3), and the decomposition check
    takes rows ``0 .. max(1, trials // 4) - 1`` of each pair's stream, one
    channel per row.  A channel ``d_in -> d_out`` is built by
    :func:`~quasirep.gpt.random_kraus` from one ``(2, d_out**2 * d_in,
    d_in)`` normal block.  Trial ``t`` is regenerated by drawing ``t`` rows
    from each role's generator and discarding them; the next row is the
    trial's.  Trials are evaluated in blocks of ``AUDIT_BLOCK_TRIALS``, a
    block being one call per role; numpy fills rows in order and keeps no
    state between calls, so the block size changes no number.  A residual
    that overflows to NaN is reported as ``inf``, and its verdict is false.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seen = set()
    for sys in systems:
        if sys.label in seen:
            raise ValueError(f"system {sys.label!r} is listed more than once")
        seen.add(sys.label)
        coord_dim = rep.slot(sys.label).coord_dim
        if coord_dim != sys.real_dim:
            raise DimensionError(
                f"slot of system {sys.label!r} acts on {coord_dim} coordinates, "
                f"the system has {sys.real_dim}"
            )
    quantum = [s for s in systems if s.is_quantum]
    pairs = list(itertools.product(quantum, repeat=2))
    # one generator per role, in contract order; the decomposition's come last
    n_trial_roles = len(quantum) ** 3 + 2 * len(quantum) + 2 * len(pairs)
    roles = [np.random.default_rng(child)
             for child in np.random.SeedSequence(seed).spawn(n_trial_roles + len(pairs))]

    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.zeros(3)
        for start in range(0, trials if quantum else 0, AUDIT_BLOCK_TRIALS):
            count = min(AUDIT_BLOCK_TRIALS, trials - start)
            residuals = np.maximum(residuals, _audit_block(rep, quantum, roles, count))

        chis = {s.label: extract_chi(rep, s) for s in systems}
        discard = np.max([_discard_residual(rep, s, chis[s.label]) for s in systems], initial=0.0)
        functorial = all(
            max_abs(rep.id_image(s.label) - np.eye(rep.slot(s.label).size)) <= IDEMPOTENCY_ATOL
            for s in systems
        )

        # one rank decision per system: dim_check holds iff every chi is injective
        phis = {}
        for sys in systems:
            try:
                phis[sys.label] = extract_phi(rep, sys, chis[sys.label])
            except InjectivityError:
                pass
        dim_ok = len(phis) == len(systems)

        decomposition = 0.0
        if any(s.label not in phis for s in quantum):
            decomposition = float("inf")
        else:
            count = max(1, trials // 4)
            for (sys_a, sys_b), rng in zip(pairs, roles[n_trial_roles:]):
                shape = channel_block_shape(sys_a.dim, sys_b.dim)
                for start in range(0, count, AUDIT_BLOCK_TRIALS):
                    normals = _rows(rng, min(AUDIT_BLOCK_TRIALS, count - start), [shape])[0]
                    kraus = random_kraus(sys_a.dim, sys_b.dim, normals)
                    residual = _decomposition_residual(
                        rep, sys_a, sys_b, chis[sys_b.label], phis[sys_a.label],
                        channel_stack(kraus)[0],
                    )
                    decomposition = np.maximum(decomposition, residual)

    semif, adequacy, linearity, discard, decomposition = np.nan_to_num(
        [*residuals, discard, decomposition], nan=np.inf, posinf=np.inf
    ).tolist()
    return AuditReport(
        semifunctorial=semif <= SEMIFUNCTORIAL_ATOL,
        semifunctorial_residual=semif,
        empirically_adequate=adequacy <= ADEQUACY_ATOL,
        adequacy_residual=adequacy,
        linear=linearity <= LINEARITY_ATOL,
        linearity_residual=linearity,
        discard_preserving=discard <= DISCARD_ATOL,
        discard_residual=discard,
        functorial=bool(functorial),
        decomposition_residual=decomposition,
        dim_check=bool(dim_ok),
        seed=seed,
        trials=trials,
    )


def frames_from_chi_phi(cp: ChiPhi, validate: bool = True) -> DualPair:
    """Recover the frame/dual pair underlying an extracted map pair.

    Rows of ``chi`` are the conjugated vectorized frame elements and columns
    of ``phi`` the vectorized dual elements; the rebuilt pair satisfies the
    reconstruction identity and its overlap matrix reproduces ``chi @ phi``.
    """
    d = cp.hilbert_dim
    if cp.chi.shape[1] != d**2:
        raise DimensionError("chi does not act on a d**2-dimensional operator space")
    frame = Frame(cp.chi.conj().reshape(-1, d, d), labels=cp.labels)
    dual = Frame(cp.phi.T.reshape(-1, d, d), labels=cp.labels)
    return DualPair(frame, dual, validate=validate)
