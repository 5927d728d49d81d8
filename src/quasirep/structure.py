"""Structure analysis of complex-valued representations.

A :class:`Representation` assigns to each system an index set and a pair of
matrices: a state side mapping coordinates to coefficient vectors and an
effect side mapping coefficients back.  A frame/dual pair gives both
(:meth:`SystemSlot.from_pair`); a delta basis is :meth:`SystemSlot.identity`.
Everything reads a representation through :meth:`Representation.apply`,
states and effects being processes from and to the trivial system ``None``.

The engine extracts, per system, one :class:`SystemSlot` of two maps
(:func:`extract_chi_phi`; :meth:`SystemSlot.to_pair` recovers its frame/dual
pair),

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
from dataclasses import asdict, dataclass

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
    """A system's two maps: index labels plus the state and effect matrices.

    ``rep`` (the state map ``chi``) maps complex coordinates to coefficients
    and ``recon`` (the effect map ``phi``) maps them back; a frame/dual pair
    gives its conjugated frame rows and dual columns (:meth:`from_pair`).
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
    def coord_dim(self) -> int:
        """Complex dimension of the system's complexified coordinate space."""
        return self.rep.shape[1]

    @classmethod
    def from_pair(cls, pair: DualPair) -> "SystemSlot":
        return cls(pair.labels, pair.frame.vec_matrix.conj(), pair.dual.vec_matrix.T)

    def to_pair(self, d: int, validate: bool = True) -> DualPair:
        """The frame/dual pair on ``d x d`` operators, inverse to :meth:`from_pair`.

        Raises:
            DimensionError: if the slot does not act on ``d**2`` coordinates.
        """
        if self.coord_dim != d * d:
            raise DimensionError(f"slot acts on {self.coord_dim} coordinates, not d**2 = {d * d}")
        frame = Frame(self.rep.conj().reshape(-1, d, d), labels=self.labels)
        dual = Frame(self.recon.T.reshape(-1, d, d), labels=self.labels)
        return DualPair(frame, dual, validate=validate)

    @classmethod
    def identity(cls, n: int) -> "SystemSlot":
        """The slot whose two maps are the identity on ``n`` coordinates."""
        eye = np.eye(n, dtype=complex)
        return cls([str(i) for i in range(n)], eye, eye)


def _check_idempotent(d: np.ndarray, what: str) -> None:
    """Raise :class:`NonIdempotentError` naming ``what`` unless ``d @ d == d``
    to ``IDEMPOTENCY_ATOL``; an overflow to NaN fails."""
    residual = max_abs(d @ d - d)
    if not residual <= IDEMPOTENCY_ATOL:
        raise NonIdempotentError(f"{what} is not idempotent (residual {residual:.3e})")


class Representation:
    """A per-system assignment of slots, read only through :meth:`apply`.

    States, effects and the identity are processes: a state is a process from
    the trivial system and an effect one to it, written ``None``, whose slot
    is the identity.  Validation checks that each identity image is idempotent.
    """

    def __init__(self, slots: dict[str, SystemSlot], validate: bool = True):
        if not slots:
            raise DimensionError("a representation needs at least one system")
        self.slots = dict(slots)
        if validate:
            for name in self.slots:
                _check_idempotent(self.id_image(name), f"identity image on system {name!r}")

    def slot(self, system: str) -> SystemSlot:
        try:
            return self.slots[system]
        except KeyError:
            raise KeyError(f"representation is not defined on system {system!r}") from None

    def id_image(self, system: str) -> np.ndarray:
        """The image ``D = rep @ recon`` of the identity process on ``system``,
        ``apply(system, system, I)``."""
        return self.apply(system, system, np.eye(self.slot(system).coord_dim))

    def apply(self, system_in: str | None, system_out: str | None, process) -> np.ndarray:
        """Representation matrix ``rep_out @ M @ recon_in`` of a process.

        ``M`` is a process matrix on the coordinate spaces, such as a
        channel superoperator from :func:`~quasirep.frames.channel_stack`,
        or a ``(B, out, in)`` stack of them (giving a stack of
        representation matrices).  ``None`` is the trivial system, whose
        factor is omitted: ``apply(None, a, M)`` is ``rep_a @ M`` for states
        as the columns of ``M``, and ``apply(a, None, M)`` is ``M @ recon_a``
        for effect covectors as its rows (an effect ``E`` is the row
        ``conj(vec(E))``).  A shape that does not fit raises
        :class:`DimensionError`.
        """
        rep = None if system_out is None else self.slot(system_out).rep
        recon = None if system_in is None else self.slot(system_in).recon
        m = np.asarray(process, dtype=complex)
        if m.ndim not in (2, 3):
            raise DimensionError(f"expected a process matrix or a stack, got ndim={m.ndim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("process entries must be finite")
        fits = (m.shape[-2] if rep is None else rep.shape[1],
                m.shape[-1] if recon is None else recon.shape[0])
        if m.shape[-2:] != fits:
            raise DimensionError(
                f"process matrix {m.shape[-2:]} does not map the coordinate spaces "
                f"{fits[1]} -> {fits[0]}"
            )
        if rep is not None:
            m = rep @ m
        return m if recon is None else m @ recon


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
    """Rows: real effect covectors on complex coordinates (``vec(E.T)`` for an operator ``E``)."""
    return effects @ sys.iso.conj().T


def extract_chi(rep: Representation, sys: GptSystem) -> np.ndarray:
    """The state map ``chi`` recovered from the action on spanning states.

    ``chi = sum_ij t_ij m_i c_j`` with ``m_i`` the represented states, the
    columns of ``rep.apply(None, sys.label, coords)``, and ``c_j`` the
    complexified effect functionals (as rows); by the identity resolution it
    satisfies ``chi @ coords(s) == rep(s)`` for every state.
    """
    images = rep.apply(None, sys.label, _complexified_state_coords(sys))  # |Lambda| x n_states
    effect_rows = _complexified_effect_rows(sys, sys.effects)          # n_effects x D
    return images @ sys.t.astype(complex) @ effect_rows


def extract_phi(
    rep: Representation, sys: GptSystem, chi: np.ndarray | None = None,
    id_image: np.ndarray | None = None,
) -> np.ndarray:
    """The effect map ``phi`` fixed by ``chi`` and the identity image.

    Implemented as ``pinv(chi) @ D``: the Moore-Penrose inverse of ``chi``
    (equal to the inverse of its surjective corestriction on the range)
    composed with the identity image ``D = rep.id_image(sys.label)``, or
    ``id_image`` when given.

    Raises:
        InjectivityError: if ``chi`` is rank-deficient (rank below its
            column count), so no corestricted inverse exists.
    """
    if chi is None:
        chi = extract_chi(rep, sys)
    rank, _, pinv = rank_range(chi)
    if rank < chi.shape[1]:
        raise InjectivityError(
            f"state map has rank {rank} < {chi.shape[1]}; not injective"
        )
    return pinv @ (rep.id_image(sys.label) if id_image is None else id_image)


def effect_sum_phi(rep: Representation, sys: GptSystem) -> np.ndarray:
    """Independent construction of ``phi`` from the action on effects:
    ``phi = sum_ij t_ij v_i xi_j`` with complexified state coordinates ``v_i``
    (columns) and represented effects ``xi_j`` (rows)."""
    coords = _complexified_state_coords(sys)
    # a real effect's row is the conjugate of its coordinates
    xi_rows = rep.apply(sys.label, None, _complexified_effect_rows(sys, sys.effects))
    return coords @ sys.t.astype(complex) @ xi_rows


def extract_chi_phi(rep: Representation, sys: GptSystem) -> SystemSlot:
    """The slot ``(chi, phi)`` of ``sys``, on its labels in ``rep``.

    Raises:
        InjectivityError: if ``chi`` is rank-deficient or ``phi @ chi != I``.
        NonIdempotentError: if ``chi @ phi`` is not idempotent.
    """
    chi = extract_chi(rep, sys)
    phi = extract_phi(rep, sys, chi)
    left = max_abs(phi @ chi - np.eye(chi.shape[1]))
    if not left <= SEMIFUNCTORIAL_ATOL:
        raise InjectivityError(f"phi is not a left inverse of chi (residual {left:.3e})")
    _check_idempotent(chi @ phi, "chi @ phi")
    return SystemSlot(rep.slot(sys.label).labels, chi, phi)


def split_idempotent(d_mat) -> tuple[np.ndarray, np.ndarray]:
    """Factor an idempotent as ``D = iota @ pi`` with ``pi @ iota = I_r``.

    ``iota`` holds an orthonormal basis of the image; since ``D`` acts as the
    identity on its image, ``pi = iota† @ D`` completes the splitting.

    Raises:
        NonIdempotentError: when ``D @ D`` differs from ``D`` beyond ``IDEMPOTENCY_ATOL``.
    """
    d_mat = as_cmat(d_mat, square=True)
    _check_idempotent(d_mat, "matrix")
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
    if not gap <= SEMIFUNCTORIAL_ATOL:
        raise SplittingMismatchError(f"factorizations split different idempotents (gap {gap:.3e})")
    xi = p2 @ i1
    checks = (
        max_abs(i2 @ xi - i1),
        max_abs(xi @ p1 - p2),
        max_abs(xi @ (p1 @ i2) - np.eye(xi.shape[0])),
    )
    worst = max_abs(checks)  # NaN-propagating, unlike Python's max
    if not worst <= SEMIFUNCTORIAL_ATOL:
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
    superops = np.stack(superops)
    lhs = rep.apply(sys_in.label, sys_out.label, superops)
    chi_out, phi_in = extract_chi(rep, sys_out), extract_phi(rep, sys_in)
    return max_abs(lhs - chi_out @ _complexified_process(superops, sys_in, sys_out) @ phi_in)


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

    def passes(self, tol: float = DECOMPOSITION_ATOL) -> bool:
        """The gating properties, with ``tol`` as the decomposition residual's
        ceiling; discard preservation is reported only."""
        return (
            self.semifunctorial
            and self.empirically_adequate
            and self.linear
            and self.decomposition_residual <= tol
        )

    def to_json(self) -> dict:
        return asdict(self)


def _discard_residual(sys: GptSystem, chi: np.ndarray) -> float:
    """Deviation of the represented discard, ``ones @ chi``, from the summation functional."""
    ones = np.ones(chi.shape[0], dtype=complex)
    return max_abs(ones @ chi - _complexified_effect_rows(sys, sys.u))


def _audit_block(
    rep: Representation, sampled: list[GptSystem], roles: list, count: int,
    maps: dict[str, tuple[np.ndarray, np.ndarray]], factored: int,
) -> tuple[float, float, float, float]:
    """Semi-functoriality, adequacy, linearity and decomposition residuals over a block.

    ``roles`` holds the role streams in contract order (see
    :func:`audit_representation`); the block reads the next ``count`` rows
    of each trial role, one generator call per role.  Each pair's two
    channels are built and represented once, as one ``(2 count, ...)``
    stack that linearity mixes and every triple through the pair reuses, so
    all pairs' stacks are alive at once.  The first channel ``T1`` of each
    pair's first ``factored`` trials is also factored as ``chi_out @ C(T1)
    @ phi_in`` through ``maps``, each system's ``(chi, phi)``.  Residuals
    fold with a NaN-propagating maximum.
    """
    roles = iter(roles)
    semif = adequacy = linearity = decomposition = 0.0
    for sys in sampled:
        normals = next(roles).standard_normal((count, 2, 2, sys.dim, sys.dim))
        rho = density_stack(normals[:, 0])
        eff = effect_stack(normals[:, 1], next(roles).random((count, sys.dim)))
        # states as (d**2, 1) columns and effects as (1, d**2) conjugate rows
        mu = rep.apply(None, sys.label, rho.reshape(count, -1, 1))
        xi = rep.apply(sys.label, None, eff.reshape(count, 1, -1).conj())
        gap = (xi @ mu)[:, 0, 0] - np.trace(eff @ rho, axis1=1, axis2=2)
        # hypot is the scalar complex abs; the array abs may differ in the last bit
        adequacy = np.maximum(adequacy, np.hypot(gap.real, gap.imag).max())

    superops, gammas = {}, {}
    for a, b in itertools.product(sampled, repeat=2):
        normals = next(roles).standard_normal((count, 2, *channel_block_shape(a.dim, b.dim)))
        kraus = random_kraus(a.dim, b.dim, normals)
        w = next(roles).random((count, 1, 1))
        pair = a.label, b.label
        superops[pair] = stack = channel_stack(kraus)[0].reshape(-1, b.dim**2, a.dim**2)
        gammas[pair] = gamma = rep.apply(a.label, b.label, stack)
        g1, g2 = gamma[0::2], gamma[1::2]
        mixed = rep.apply(a.label, b.label, w * stack[0::2] + (1 - w) * stack[1::2])
        linearity = np.maximum(linearity, max_abs(mixed - (w * g1 + (1 - w) * g2)))
        if factored:
            c1 = _complexified_process(stack[0::2][:factored], a, b)
            rhs = maps[b.label][0] @ c1 @ maps[a.label][1]
            decomposition = np.maximum(decomposition, max_abs(g1[:factored] - rhs))

    # T2, the second channel of (b, c), is independent of T1 even when a = b = c
    for a, b, c in itertools.product(sampled, repeat=3):
        first, second = (a.label, b.label), (b.label, c.label)
        whole = rep.apply(a.label, c.label, superops[second][1::2] @ superops[first][0::2])
        product = gammas[second][1::2] @ gammas[first][0::2]
        semif = np.maximum(semif, max_abs(whole - product))
    return semif, adequacy, linearity, decomposition


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
    intermediate system; linearity represents the mixture ``w S1 + (1 - w)
    S2`` of the pair's superoperators against the weighted sum; the
    factorization check compares ``Gamma(T1)`` with ``chi_out @ C(T1) @
    phi_in``, ``C(T1)`` taken through real coordinates.

    Sampling contract (what makes a report a function of ``seed`` and
    ``trials`` alone, however the work is batched): every run of same-kind
    draws is a *role* with a stream of its own.  With ``S`` sampled systems
    (those with a Hilbert dimension ``dim``) the roles are, in this order:

    1. for each sampled system, one ``(2, 2, d, d)`` block of normals (the
       state's, then the effect's), then the effect weights (``d`` uniforms);
    2. for each pair ``(a, b)``, the normal blocks of its two channels, then
       the weight ``w`` (one uniform); a triple ``(a, b, c)`` composes the
       first channel ``T1`` of ``(a, b)`` with the second ``T2`` of ``(b, c)``.

    Role ``k`` reads ``default_rng(SeedSequence(seed).spawn(n)[k])``, where
    ``n = 2 S**2 + 2 S`` whatever ``trials`` is.  Trial ``t`` takes row
    ``t`` of each role.  The factorization check factors ``T1`` of the
    first ``max(1, trials // 4)`` trials and draws nothing of its own.  A
    channel ``d_in -> d_out`` is built by :func:`~quasirep.gpt.random_kraus`
    from one ``(2, d_out**2 * d_in, d_in)`` normal block.  Trial ``t`` is
    regenerated by drawing ``t`` rows from each role's generator and
    discarding them; the next row is the trial's.  Trials are evaluated in
    blocks of ``AUDIT_BLOCK_TRIALS``, a block being one ``(count, *shape)``
    call per role; numpy fills a C-order array in stream order and keeps no
    state between calls, so the block size changes no number, and memory
    grows with ``S**2`` but not with ``trials``.  A residual that overflows
    to NaN is reported as ``inf``, and its verdict is false; the
    decomposition residual is ``inf`` when a sampled system has no ``phi``.
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
    sampled = [s for s in systems if s.dim is not None]
    # one generator per role, in contract order: two per sampled system and two per pair
    roles = [np.random.default_rng(child)
             for child in np.random.SeedSequence(seed).spawn(2 * len(sampled) * (len(sampled) + 1))]

    with np.errstate(over="ignore", invalid="ignore"):
        chis = {s.label: extract_chi(rep, s) for s in systems}
        id_images = {s.label: rep.id_image(s.label) for s in systems}
        # one rank decision per system: dim_check holds iff every chi is injective
        maps = {}
        for sys in systems:
            try:
                maps[sys.label] = chis[sys.label], extract_phi(
                    rep, sys, chis[sys.label], id_images[sys.label]
                )
            except InjectivityError:
                pass
        factored = max(1, trials // 4) if all(s.label in maps for s in sampled) else 0

        residuals = np.zeros(4)
        for start in range(0, trials if sampled else 0, AUDIT_BLOCK_TRIALS):
            count = min(AUDIT_BLOCK_TRIALS, trials - start)
            block = _audit_block(rep, sampled, roles, count, maps, max(0, factored - start))
            residuals = np.maximum(residuals, block)
        if not factored:
            residuals[3] = np.inf

        discard = np.max([_discard_residual(s, chis[s.label]) for s in systems], initial=0.0)
        functorial = all(
            max_abs(d - np.eye(len(d))) <= IDEMPOTENCY_ATOL for d in id_images.values()
        )

    semif, adequacy, linearity, decomposition, discard = np.nan_to_num(
        [*residuals, discard], nan=np.inf, posinf=np.inf
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
        dim_check=len(maps) == len(systems),
        seed=seed,
        trials=trials,
    )
