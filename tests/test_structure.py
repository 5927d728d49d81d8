import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import GptSystem, gpt, structure
from quasirep.errors import (
    DimensionError,
    InjectivityError,
    NonIdempotentError,
    ReconstructionError,
    SplittingMismatchError,
)
from quasirep.frames import (
    Channel,
    DualPair,
    Frame,
    canonical_dual,
    random_frame,
)
from quasirep.gpt import effect_stack, make_system, random_channel, random_density
from quasirep.kirkwood_dirac import kd_distribution, kd_frame_pair, preset_bases, random_faithful_bases
from quasirep.linalg import max_abs, rank_range, vectorize
from quasirep.structure import (
    AUDIT_BLOCK_TRIALS,
    Representation,
    SystemSlot,
    _discard_residual,
    audit_representation,
    build_representation,
    effect_sum_phi,
    extract_chi,
    extract_chi_phi,
    extract_phi,
    split_idempotent,
    splitting_isomorphism,
    verify_decomposition,
)

from conftest import PAULIS, random_complex_matrix


@pytest.fixture
def qubit():
    return make_system("quantum", 2)


@pytest.fixture
def qutrit():
    return make_system("quantum", 3)


def kd_rep(sys, seed=3):
    pair = kd_frame_pair(random_faithful_bases(sys.dim, seed=seed))
    return build_representation({sys.label: pair}), pair


def overcomplete_rep(sys, rng, extra=1):
    frame = random_frame(sys.dim, sys.dim**2 + extra, rng)
    pair = canonical_dual(frame)
    return build_representation({sys.label: pair}), pair


@functools.cache
def _qubit_and_qutrit():
    systems = [make_system("quantum", 2), make_system("quantum", 3)]
    rep = build_representation({
        systems[0].label: kd_frame_pair(random_faithful_bases(2, seed=4)),
        systems[1].label: kd_frame_pair(random_faithful_bases(3, seed=5)),
    })
    return rep, systems


def _reference_report(rep, systems, trials, seed):
    """The audit's sampling contract rebuilt with no batching: trial by trial,
    each item drawn by its own call to its role's generator."""
    quantum = [s for s in systems if s.dim is not None]
    pairs = list(itertools.product(quantum, repeat=2))
    roles = [np.random.default_rng(child)
             for child in np.random.SeedSequence(seed).spawn(2 * len(quantum) + 2 * len(pairs))]

    def draw_channel(rng, a, b):
        normals = rng.standard_normal(gpt.channel_block_shape(a.dim, b.dim))
        return Channel(gpt.random_kraus(a.dim, b.dim, normals))

    semif, adequacy, linearity, decomposition = [0.0], [0.0], [0.0], [0.0]
    for trial in range(trials):
        role = iter(roles)
        for sys in quantum:
            normals, weights = next(role), next(role)
            rho = random_density(sys.dim, normals)
            eff = effect_stack(normals.standard_normal((2, sys.dim, sys.dim)),
                               weights.uniform(0, 1, sys.dim))
            slot = rep.slot(sys.label)
            mu = slot.rep @ rho.reshape(-1, 1)
            xi = eff.reshape(1, -1).conj() @ slot.recon
            adequacy.append(abs((xi @ mu)[0, 0] - np.trace(eff @ rho)))
        channels = {}
        for a, b in pairs:
            rng, weight = next(role), next(role)
            ch1, ch2 = draw_channel(rng, a, b), draw_channel(rng, a, b)
            channels[a.label, b.label] = ch1, ch2
            w = weight.uniform(0, 1)
            mixed = w * ch1.superop + (1 - w) * ch2.superop
            weighted = (w * rep.apply(a.label, b.label, ch1.superop)
                        + (1 - w) * rep.apply(a.label, b.label, ch2.superop))
            linearity.append(max_abs(rep.apply(a.label, b.label, mixed) - weighted))
            if trial < max(1, trials // 4):
                decomposition.append(verify_decomposition(rep, a, b, [ch1]))
        # T1 is the first channel of pair (a, b), T2 the second of pair (b, c)
        for a, b, c in itertools.product(quantum, repeat=3):
            ch1, ch2 = channels[a.label, b.label][0], channels[b.label, c.label][1]
            whole = rep.apply(a.label, c.label, ch2.superop @ ch1.superop)
            product = (rep.apply(b.label, c.label, ch2.superop)
                       @ rep.apply(a.label, b.label, ch1.superop))
            semif.append(max_abs(whole - product))
    discard = max(_discard_residual(s, extract_chi(rep, s)) for s in systems)
    id_images = [rep.slot(s.label).rep @ rep.slot(s.label).recon for s in systems]
    return {
        "semifunctorial": max(semif) <= structure.SEMIFUNCTORIAL_ATOL,
        "semifunctorial_residual": max(semif),
        "empirically_adequate": max(adequacy) <= structure.ADEQUACY_ATOL,
        "adequacy_residual": max(adequacy),
        "linear": max(linearity) <= structure.LINEARITY_ATOL,
        "linearity_residual": max(linearity),
        "discard_preserving": discard <= structure.DISCARD_ATOL,
        "discard_residual": discard,
        "functorial": all(
            max_abs(d - np.eye(len(d))) <= structure.IDEMPOTENCY_ATOL for d in id_images
        ),
        "decomposition_residual": max(decomposition),
        "dim_check": True,
        "seed": seed,
        "trials": trials,
    }


class TestBuildRepresentation:
    def test_kd_identity_image_is_identity(self, qubit):
        rep, _ = kd_rep(qubit)
        assert max_abs(rep.id_image(qubit.label) - np.eye(4)) <= 1e-9

    def test_overcomplete_idempotent_rank_four(self, qubit, rng):
        elements = [p / np.sqrt(2) for p in PAULIS] + [random_complex_matrix(rng, 2)]
        pair = canonical_dual(Frame(elements))
        rep = build_representation({qubit.label: pair})
        d_mat = rep.id_image(qubit.label)
        assert max_abs(d_mat @ d_mat - d_mat) <= 1e-9
        assert np.linalg.matrix_rank(d_mat) == 4
        assert max_abs(d_mat - np.eye(5)) > 1e-3

    def test_invalid_pair_rejected(self, qubit, rng):
        broken = DualPair(random_frame(2, 4, rng), random_frame(2, 4, rng), validate=False)
        with pytest.raises(NonIdempotentError):
            build_representation({qubit.label: broken})

    def test_idempotency_for_random_spanning_frames(self, qubit, rng):
        for trial in range(10):
            rep, _ = overcomplete_rep(qubit, rng, extra=trial % 4)
            d_mat = rep.id_image(qubit.label)
            assert max_abs(d_mat @ d_mat - d_mat) <= 1e-9


def channel_by_definition(pair_out, pair_in, ch):
    """``Gamma[l', l] = Tr(F_l'† ch(G_l))``, one label pair at a time."""
    return np.array([
        [np.trace(f.conj().T @ sum(k @ g @ k.conj().T for k in ch.kraus))
         for g in pair_in.dual.elements]
        for f in pair_out.frame.elements
    ])


class TestMatrixSlots:
    """The slot matrices reproduce the frame definitions, evaluated label by label."""

    @pytest.mark.parametrize("kind", ["kd", "overcomplete"])
    def test_matches_frame_formulas(self, qubit, rng, kind):
        rep, pair = kd_rep(qubit) if kind == "kd" else overcomplete_rep(qubit, rng, extra=3)
        label = qubit.label
        for trial in range(5):
            rho = random_density(2, rng)
            e = random_complex_matrix(rng, 2)
            ch = random_channel(2, 2, seed=40 + trial)
            mu = [np.trace(f.conj().T @ rho) for f in pair.frame.elements]
            xi = [np.trace(e.conj().T @ g) for g in pair.dual.elements]
            assert max_abs(rep.apply(None, label, rho.reshape(-1, 1))[:, 0] - mu) <= 1e-12
            assert max_abs(rep.apply(label, None, e.reshape(1, -1).conj())[0] - xi) <= 1e-12
            gamma = channel_by_definition(pair, pair, ch)
            assert max_abs(rep.apply(label, label, ch.superop) - gamma) <= 1e-12

    def test_qubit_to_qutrit_channel(self, qubit, qutrit, rng):
        pair_in = kd_frame_pair(random_faithful_bases(2, seed=4))
        pair_out = canonical_dual(random_frame(3, 11, rng))
        rep = build_representation({qubit.label: pair_in, qutrit.label: pair_out})
        ch = random_channel(2, 3, seed=9)
        gamma = rep.apply(qubit.label, qutrit.label, ch.superop)
        assert gamma.shape == (11, 4)
        assert max_abs(gamma - channel_by_definition(pair_out, pair_in, ch)) <= 1e-12

    def test_wrong_size_operator_rejected(self, qubit):
        # a qutrit state has 9 rows and a qutrit effect 9 columns, not 4
        rep, _ = kd_rep(qubit)
        with pytest.raises(DimensionError):
            rep.apply(None, qubit.label, np.eye(3).reshape(-1, 1))
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, None, np.eye(3).reshape(1, -1))
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, qubit.label, random_channel(2, 3, seed=1).superop)

    def test_stacks_match_one_at_a_time(self, qubit, qutrit, rng):
        # the audit's batched products carry the exact bits of single calls
        rep = build_representation({
            qubit.label: canonical_dual(random_frame(2, 6, rng)),
            qutrit.label: kd_frame_pair(random_faithful_bases(3, seed=2)),
        })
        channels = [random_channel(2, 3, seed=s) for s in range(5)]
        stack = np.array([ch.superop for ch in channels])
        gammas = rep.apply(qubit.label, qutrit.label, stack)
        assert gammas.shape == (5, 9, 6)
        for ch, gamma in zip(channels, gammas):
            assert np.array_equal(gamma, rep.apply(qubit.label, qutrit.label, ch.superop))
        ops = np.array([random_density(2, rng) for _ in range(4)])
        for system_in, system_out, m, shape in (
            (None, qubit.label, ops.reshape(4, -1, 1), (4, 6, 1)),
            (qubit.label, None, ops.reshape(4, 1, -1).conj(), (4, 1, 6)),
        ):
            stacked = rep.apply(system_in, system_out, m)
            assert stacked.shape == shape
            assert np.array_equal(stacked, [rep.apply(system_in, system_out, x) for x in m])
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, qutrit.label, stack[:, :, :3])
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, qutrit.label, stack[None])
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rep.apply(qubit.label, qutrit.label, stack)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_trivial_system_factor_is_omitted(self, d, extra, width, seed):
        # states, effects and the identity are processes, with the exact bits
        # of the one slot matrix they need
        rng = np.random.default_rng(seed)
        size = d * d + extra
        rep_m = random_complex_matrix(rng, size, d * d)
        recon = random_complex_matrix(rng, d * d, size)
        slot = SystemSlot([str(i) for i in range(size)], rep_m, recon)
        rep = Representation({"a": slot}, validate=False)
        states = random_complex_matrix(rng, d * d, width)
        effects = random_complex_matrix(rng, width, d * d)
        assert np.array_equal(rep.apply(None, "a", states), rep_m @ states)
        assert np.array_equal(rep.apply("a", None, effects), effects @ recon)
        assert np.array_equal(rep.id_image("a"), rep_m @ recon)

    def test_classical_effect_side(self):
        sys3 = make_system("classical", 3)
        rep = Representation({sys3.label: SystemSlot.identity(3)})
        assert max_abs(effect_sum_phi(rep, sys3) - np.eye(3)) <= 1e-12
        assert max_abs(extract_phi(rep, sys3) - np.eye(3)) <= 1e-12
        assert _discard_residual(sys3, extract_chi(rep, sys3)) <= 1e-12


class TestExtractChi:
    def test_equals_representation_matrix(self, qubit, rng):
        # chi, built from the t-weighted sum over spanning states and
        # complexified effects, must reproduce the conjugated frame rows
        rep, pair = overcomplete_rep(qubit, rng)
        chi = extract_chi(rep, qubit)
        assert max_abs(chi - pair.frame.vec_matrix.conj()) <= 1e-9

    def test_reproduces_kd_distribution(self, qubit, rng):
        kb = random_faithful_bases(2, seed=8)
        rep = build_representation({qubit.label: kd_frame_pair(kb)})
        chi = extract_chi(rep, qubit)
        for _ in range(20):
            rho = random_density(2, rng)
            table = (chi @ vectorize(rho)).reshape(2, 2)
            assert max_abs(table - kd_distribution(kb, rho)) <= 1e-10

    def test_classical_delta_is_identity(self):
        sys4 = make_system("classical", 4)
        rep = Representation({sys4.label: SystemSlot.identity(4)})
        assert max_abs(extract_chi(rep, sys4) - np.eye(4)) <= 1e-12

    def test_maps_states_correctly(self, qutrit, rng):
        rep, _ = kd_rep(qutrit, seed=5)
        chi = extract_chi(rep, qutrit)
        coords = qutrit.iso @ qutrit.states.T  # the spanning states as columns
        assert max_abs(chi @ coords - rep.apply(None, qutrit.label, coords)) <= 1e-9


class TestExtractPhi:
    def test_functorial_case_full_inverse(self, qubit):
        rep, _ = kd_rep(qubit)
        chi = extract_chi(rep, qubit)
        phi = extract_phi(rep, qubit, chi)
        assert max_abs(phi @ chi - np.eye(4)) <= 1e-10
        assert max_abs(chi @ phi - np.eye(4)) <= 1e-10

    def test_overcomplete_splits_identity_image(self, qubit, rng):
        rep, _ = overcomplete_rep(qubit, rng)
        chi = extract_chi(rep, qubit)
        phi = extract_phi(rep, qubit, chi)
        d_mat = rep.id_image(qubit.label)
        assert max_abs(phi @ chi - np.eye(4)) <= 1e-9
        assert max_abs(chi @ phi - d_mat) <= 1e-9
        assert max_abs(d_mat - np.eye(5)) > 1e-3

    def test_effect_sum_agrees(self, qubit, rng):
        # two independent constructions of the effect map coincide
        rep, _ = overcomplete_rep(qubit, rng)
        phi = extract_phi(rep, qubit)
        phi_from_effects = effect_sum_phi(rep, qubit)
        assert max_abs(phi - phi_from_effects) <= 1e-9

    def test_effect_sum_agrees_kd(self, qutrit):
        rep, _ = kd_rep(qutrit, seed=9)
        assert max_abs(extract_phi(rep, qutrit) - effect_sum_phi(rep, qutrit)) <= 1e-9

    def test_rank_deficient_chi_rejected(self, qubit):
        rep, _ = kd_rep(qubit)
        crippled = np.zeros((4, 4), dtype=complex)
        with pytest.raises(InjectivityError):
            extract_phi(rep, qubit, crippled)

    def test_chi_phi_bundle_validates(self, qutrit):
        rep, _ = kd_rep(qutrit, seed=2)
        slot = extract_chi_phi(rep, qutrit)
        assert slot.coord_dim == 9 and slot.labels == rep.slot(qutrit.label).labels

    def test_mixed_frames_slot_is_not_injective(self, qubit, rng):
        # one frame's state side against another frame's dual: phi @ chi != I
        first, second = (canonical_dual(random_frame(2, 4, rng)) for _ in range(2))
        mixed = SystemSlot.from_pair(DualPair(first.frame, second.dual, validate=False))
        rep = Representation({qubit.label: mixed}, validate=False)
        with pytest.raises(InjectivityError, match="left inverse"):
            extract_chi_phi(rep, qubit)

    def test_overflowing_left_inverse_is_not_injective(self):
        # phi = D = 1e400 I overflows, so phi @ chi holds inf * 0 = NaN: no left inverse
        bits = make_system("classical", 2)
        huge = SystemSlot("ab", np.eye(2) * 1e200, np.eye(2) * 1e200)
        rep = Representation({bits.label: huge}, validate=False)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InjectivityError, match="left inverse of chi .residual nan"):
            extract_chi_phi(rep, bits)

    def test_classical_slot_is_not_a_qubit_pair(self):
        # four coordinates are d**2 for d = 2, but a classical:4 slot has no d
        bits = make_system("classical", 4)
        slot = extract_chi_phi(Representation({bits.label: SystemSlot.identity(4)}), bits)
        with pytest.raises(DimensionError, match="16"):
            slot.to_pair(4)


class TestSplitIdempotent:
    def test_diagonal_projector(self):
        iota, pi = split_idempotent(np.diag([1.0, 0.0]))
        assert iota.shape == (2, 1) and pi.shape == (1, 2)
        assert max_abs(iota @ pi - np.diag([1.0, 0.0])) <= 1e-12
        assert max_abs(pi @ iota - np.eye(1)) <= 1e-12

    def test_overcomplete_identity_image(self, qubit, rng):
        rep, _ = overcomplete_rep(qubit, rng, extra=2)
        d_mat = rep.id_image(qubit.label)
        iota, pi = split_idempotent(d_mat)
        assert max_abs(iota @ pi - d_mat) <= 1e-10
        assert max_abs(pi @ iota - np.eye(4)) <= 1e-10

    def test_non_idempotent_rejected(self, rng):
        with pytest.raises(NonIdempotentError):
            split_idempotent(random_complex_matrix(rng, 3))


class TestSplittingIsomorphism:
    def test_same_splitting_gives_identity(self, rng):
        a = random_complex_matrix(rng, 5, 3)
        _, _, pinv = rank_range(a)
        s = (a, pinv @ (a @ pinv))
        xi = splitting_isomorphism(s, s)
        assert max_abs(xi - np.eye(3)) <= 1e-9

    def test_recovers_connecting_matrix(self, rng):
        # conjugate one splitting by a random invertible map and recover it
        a = random_complex_matrix(rng, 6, 3)
        _, _, pinv = rank_range(a)
        iota, pi = a, pinv @ (a @ pinv)
        u = random_complex_matrix(rng, 3)
        while np.linalg.matrix_rank(u) < 3:
            u = random_complex_matrix(rng, 3)
        s2 = (iota @ np.linalg.inv(u), u @ pi)
        xi = splitting_isomorphism((iota, pi), s2)
        assert max_abs(xi - u) <= 1e-8

    def test_different_idempotents_rejected(self):
        s1 = split_idempotent(np.diag([1.0, 0.0]))
        s2 = split_idempotent(np.diag([0.0, 1.0]))
        with pytest.raises(SplittingMismatchError):
            splitting_isomorphism(s1, s2)

    def test_overflowing_gap_is_a_mismatch(self):
        # 1e300 * 1e300 overflows, so the gap inf - inf is NaN: that is no match
        same = ([[1e300]], [[1e300]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SplittingMismatchError, match="split different idempotents .gap nan"):
            splitting_isomorphism(same, same)

    def test_intertwining_identities(self, rng):
        for trial in range(10):
            n, r = 6, 1 + trial % 4
            chi = random_complex_matrix(rng, n, r)
            _, _, phi = rank_range(chi)
            d_mat = chi @ phi
            s1 = split_idempotent(d_mat)
            s2 = (chi, phi)
            xi = splitting_isomorphism(s1, s2)
            assert max_abs(s2[0] @ xi - s1[0]) <= 1e-9
            assert max_abs(xi @ s1[1] - s2[1]) <= 1e-9
            assert max_abs(xi @ (s1[1] @ s2[0]) - np.eye(r)) <= 1e-9


class TestVerifyDecomposition:
    def test_kd_rep_random_channels(self, qubit):
        rep, _ = kd_rep(qubit)
        channels = [random_channel(2, 2, seed=s) for s in range(20)]
        assert verify_decomposition(rep, qubit, qubit, channels) <= 1e-8

    def test_overcomplete_rep_random_channels(self, qubit, rng):
        rep, _ = overcomplete_rep(qubit, rng, extra=2)
        channels = [random_channel(2, 2, seed=s) for s in range(20)]
        assert verify_decomposition(rep, qubit, qubit, channels) <= 1e-8

    def test_cross_dimensional(self, qubit, qutrit, rng):
        rep = build_representation({
            qubit.label: kd_frame_pair(random_faithful_bases(2, seed=1)),
            qutrit.label: canonical_dual(random_frame(3, 10, rng)),
        })
        channels = [random_channel(2, 3, seed=s) for s in range(5)]
        assert verify_decomposition(rep, qubit, qutrit, channels) <= 1e-8

    def test_corrupted_phi_detected(self, qubit):
        # perturbing one entry of phi must push the residual far above noise
        rep, _ = kd_rep(qubit)
        chi = extract_chi(rep, qubit)
        phi = extract_phi(rep, qubit, chi)
        phi_bad = phi.copy()
        phi_bad[0, 0] += 0.1
        ch = random_channel(2, 2, seed=0)
        from quasirep.structure import _complexified_process

        lhs = rep.apply(qubit.label, qubit.label, ch.superop)
        rhs = chi @ _complexified_process(ch.superop, qubit, qubit) @ phi_bad
        assert max_abs(lhs - rhs) > 1e-3

    def test_system_without_dim_is_named(self, qubit):
        # the error names the system with no Hilbert dimension, on either side
        bits = make_system("classical", 4)
        slots = {bits.label: SystemSlot.identity(4), qubit.label: kd_rep(qubit)[0].slot(qubit.label)}
        rep = Representation(slots)
        for sys_in, sys_out in ((bits, bits), (qubit, bits), (bits, qubit)):
            with pytest.raises(DimensionError, match="'classical-4' has no Hilbert dimension"):
                verify_decomposition(rep, sys_in, sys_out, [random_channel(2, 2)])


class TestSemiFunctoriality:
    def test_composition_multiplicative(self, qubit, qutrit, rng):
        for sys, seed in ((qubit, 1), (qutrit, 2)):
            rep, pair = overcomplete_rep(sys, rng)
            for trial in range(20):
                ch1 = random_channel(sys.dim, sys.dim, seed=100 * seed + trial)
                ch2 = random_channel(sys.dim, sys.dim, seed=200 * seed + trial)
                composed = Channel([k2 @ k1 for k2 in ch2.kraus for k1 in ch1.kraus])
                lhs = rep.apply(sys.label, sys.label, composed.superop)
                rhs = (rep.apply(sys.label, sys.label, ch2.superop)
                       @ rep.apply(sys.label, sys.label, ch1.superop))
                assert max_abs(lhs - rhs) <= 1e-9

    def test_linearity_random_combinations(self, qubit, rng):
        rep, _ = kd_rep(qubit)
        ch1 = random_channel(2, 2, seed=31)
        ch2 = random_channel(2, 2, seed=32)
        g1 = rep.apply(qubit.label, qubit.label, ch1.superop)
        g2 = rep.apply(qubit.label, qubit.label, ch2.superop)
        for _ in range(10):
            alpha, beta = rng.uniform(-2, 2, 2)
            combo = rep.apply(qubit.label, qubit.label, alpha * ch1.superop + beta * ch2.superop)
            assert max_abs(combo - (alpha * g1 + beta * g2)) <= 1e-9


class TestAudit:
    def test_kd_all_green(self, qubit):
        rep, _ = kd_rep(qubit)
        report = audit_representation(rep, [qubit], trials=8, seed=0)
        assert report.semifunctorial and report.empirically_adequate
        assert report.linear and report.discard_preserving and report.functorial
        assert report.dim_check and report.decomposition_residual <= 1e-8
        assert report.passes()

    def test_matrix_unit_frame_breaks_discard_only(self, qubit):
        elements = []
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1
                elements.append(e)
        rep = build_representation({qubit.label: canonical_dual(Frame(elements))})
        report = audit_representation(rep, [qubit], trials=8, seed=1)
        assert not report.discard_preserving
        assert report.semifunctorial and report.empirically_adequate and report.linear
        assert report.functorial and report.passes()

    def test_mixed_frames_break_adequacy(self, qubit, rng):
        f1 = random_frame(2, 4, rng)
        f2 = random_frame(2, 4, rng)
        mixed = DualPair(f1, canonical_dual(f2).dual, validate=False)
        rep = Representation({qubit.label: SystemSlot.from_pair(mixed)}, validate=False)
        report = audit_representation(rep, [qubit], trials=8, seed=2)
        assert not report.empirically_adequate
        assert not report.passes()

    def test_report_json_serializes(self, qubit):
        import json

        rep, _ = kd_rep(qubit)
        report = audit_representation(rep, [qubit], trials=2, seed=0)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["trials"] == 2 and payload["functorial"] is True

    def test_two_system_audit(self, qubit, qutrit, rng):
        rep = build_representation({
            qubit.label: kd_frame_pair(random_faithful_bases(2, seed=4)),
            qutrit.label: kd_frame_pair(random_faithful_bases(3, seed=5)),
        })
        report = audit_representation(rep, [qubit, qutrit], trials=3, seed=6)
        assert report.passes() and report.functorial

    @pytest.mark.parametrize("seed", [2**32, 2**100])
    def test_large_seeds_match_default_rng(self, qubit, qutrit, seed):
        # the seed alone is the root entropy: 2 and 4 words of SeedSequence's pool
        bits = make_system("classical", 2)
        rep = Representation({
            qubit.label: SystemSlot.from_pair(kd_frame_pair(random_faithful_bases(2, seed=4))),
            bits.label: SystemSlot.identity(2),
            qutrit.label: SystemSlot.from_pair(kd_frame_pair(random_faithful_bases(3, seed=5))),
        })
        systems = [qubit, bits, qutrit]
        report = audit_representation(rep, systems, trials=5, seed=seed)
        assert report.to_json() == _reference_report(rep, systems, 5, seed)

    @pytest.mark.parametrize("seed", [0, 2**40])
    def test_equals_one_trial_at_a_time_reference(self, qubit, qutrit, seed):
        rep = build_representation({
            qubit.label: kd_frame_pair(random_faithful_bases(2, seed=4)),
            qutrit.label: canonical_dual(random_frame(3, 11, np.random.default_rng(8))),
        })
        systems = [qubit, qutrit]
        # at 4 AUDIT_BLOCK_TRIALS + 4 trials the 65 factored trials span two blocks
        for trials in (AUDIT_BLOCK_TRIALS + 1, 4 * AUDIT_BLOCK_TRIALS + 4):
            report = audit_representation(rep, systems, trials=trials, seed=seed)
            assert report.to_json() == _reference_report(rep, systems, trials, seed)
            assert report.passes()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 2**64 - 1))
    def test_equals_the_reference_at_any_seed(self, trials, seed):
        rep, systems = _qubit_and_qutrit()
        report = audit_representation(rep, systems, trials=trials, seed=seed)
        assert report.to_json() == _reference_report(rep, systems, trials, seed)

    def test_builds_one_generator_per_role(self, qubit, qutrit, monkeypatch):
        rep = build_representation({
            qubit.label: kd_frame_pair(random_faithful_bases(2, seed=4)),
            qutrit.label: kd_frame_pair(random_faithful_bases(3, seed=5)),
        })
        built = []

        def counting(make):
            def wrapper(*args, **kwargs):
                built.append(make.__name__)
                return make(*args, **kwargs)
            return wrapper

        # every Generator quasirep builds comes from one of these two names
        monkeypatch.setattr(np.random, "Generator", counting(np.random.Generator))
        monkeypatch.setattr(np.random, "default_rng", counting(np.random.default_rng))
        s = 2
        for trials in (1, AUDIT_BLOCK_TRIALS + 3, 4 * AUDIT_BLOCK_TRIALS + 4):
            built.clear()
            audit_representation(rep, [qubit, qutrit], trials=trials, seed=0)
            # two roles per system and per pair; the factorization check has none
            assert built == ["default_rng"] * (2 * s**2 + 2 * s)

    @pytest.mark.parametrize("trials", [1, AUDIT_BLOCK_TRIALS + 3])
    def test_builds_each_pair_stack_once_per_block(self, trials, monkeypatch):
        # linearity, semi-functoriality and the factorization check read the
        # pair channels: per block, one Kraus draw and one superoperator stack
        # per pair, none for the mixture, per triple or for the factorization
        rep, systems = _qubit_and_qutrit()
        counts = {"random_kraus": 0, "channel_stack": 0}

        def counting(name):
            make = getattr(structure, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return make(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(structure, name, counting(name))
        audit_representation(rep, systems, trials=trials, seed=0)
        s = len(systems)
        blocks = -(-trials // AUDIT_BLOCK_TRIALS)
        assert counts == {"random_kraus": blocks * s**2, "channel_stack": blocks * s**2}

    def test_builds_each_identity_image_once(self, monkeypatch):
        # extract_phi and the functorial verdict read the same image
        systems = [make_system("quantum", d) for d in (2, 3, 4)]
        rep = Representation({
            s.label: SystemSlot.from_pair(kd_frame_pair(preset_bases("fourier", s.dim)))
            for s in systems
        }, validate=False)
        built = []
        id_image = Representation.id_image

        def counting(self, system):
            built.append(system)
            return id_image(self, system)

        monkeypatch.setattr(Representation, "id_image", counting)
        assert audit_representation(rep, systems, trials=2, seed=0).passes()
        assert built == [s.label for s in systems]

    @pytest.mark.parametrize("trials", [1, 4 * AUDIT_BLOCK_TRIALS + 4])
    def test_draws_each_segment_in_one_generator_call(self, qubit, qutrit, trials, monkeypatch):
        # one call per role and per block of AUDIT_BLOCK_TRIALS trials; the
        # classical system has no role
        bits = make_system("classical", 2)
        rep = Representation({
            qubit.label: SystemSlot.from_pair(kd_frame_pair(random_faithful_bases(2, seed=4))),
            qutrit.label: SystemSlot.from_pair(kd_frame_pair(random_faithful_bases(3, seed=5))),
            bits.label: SystemSlot.identity(2),
        })
        calls = []

        class CountingGenerator:
            def __init__(self, rng, role):
                self.rng, self.role = rng, role

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    calls[self.role] += 1
                    return method(*args, **kwargs)
                return counted

        default_rng = np.random.default_rng

        def counting_rng(seed):
            calls.append(0)
            return CountingGenerator(default_rng(seed), len(calls) - 1)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        audit_representation(rep, [qubit, bits, qutrit], trials=trials, seed=0)
        s = 2
        blocks = -(-trials // AUDIT_BLOCK_TRIALS)
        assert calls == [blocks] * (2 * s + 2 * s**2)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**64 - 1))
    def test_block_size_changes_no_number(self, trials, seed):
        rep, systems = _qubit_and_qutrit()
        reports = []
        for block in (1, 3, 64, 1000):
            with mock.patch.object(structure, "AUDIT_BLOCK_TRIALS", block):
                reports.append(audit_representation(rep, systems, trials, seed).to_json())
        assert all(report == reports[0] for report in reports)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**64 - 1))
    def test_more_trials_never_lower_a_residual(self, trials, extra, seed):
        # a longer audit reads every row of a shorter one, and more of each stream
        rep, systems = _qubit_and_qutrit()
        short = audit_representation(rep, systems, trials=trials, seed=seed).to_json()
        long = audit_representation(rep, systems, trials=trials + extra, seed=seed).to_json()
        for key in ("semifunctorial_residual", "adequacy_residual", "linearity_residual",
                    "decomposition_residual"):
            assert short[key] <= long[key]

    def test_repeated_system_is_rejected(self, qubit):
        rep, _ = kd_rep(qubit)
        assert audit_representation(rep, [qubit], trials=1).dim_check
        with pytest.raises(ValueError, match="'quantum-2' is listed more than once"):
            audit_representation(rep, [qubit, qubit], trials=1)

    def test_slot_that_does_not_fit_its_system_is_rejected(self, qubit, qutrit):
        # a qubit pair on a 2-outcome classical system and a qutrit pair on a qubit
        rep, _ = kd_rep(qubit)
        bits = make_system("classical", 2, label=qubit.label)
        with pytest.raises(DimensionError, match="'quantum-2'.* 4 coordinates.* has 2"):
            audit_representation(rep, [bits], trials=1)
        rep3, _ = kd_rep(qutrit)
        with pytest.raises(DimensionError, match="'quantum-3'.* 9 coordinates.* has 4"):
            audit_representation(rep3, [make_system("quantum", 2, label=qutrit.label)], trials=1)

    def test_rank_deficient_chi_fails_dim_check(self, qubit):
        # a quantum chi of rank 3 < 4 has no phi, so nothing decomposes; a
        # classical one fails the rank check while the quantum pairs decompose
        rep, _ = kd_rep(qubit)
        slot = rep.slot(qubit.label)
        crippled = slot.rep.copy()
        crippled[-1] = 0
        broken = Representation(
            {qubit.label: SystemSlot(slot.labels, crippled, slot.recon)}, validate=False
        )
        report = audit_representation(broken, [qubit], trials=2, seed=0)
        assert not report.dim_check and report.decomposition_residual == float("inf")

        bits = make_system("classical", 3)
        lossy = SystemSlot(["0", "1", "2"], np.diag([1.0, 1.0, 0.0]), np.eye(3))
        mixed = Representation({qubit.label: slot, bits.label: lossy}, validate=False)
        report = audit_representation(mixed, [qubit, bits], trials=2, seed=0)
        healthy = audit_representation(rep, [qubit], trials=2, seed=0)
        assert not report.dim_check and healthy.dim_check
        assert report.decomposition_residual == healthy.decomposition_residual <= 1e-8


    def test_memory_does_not_grow_with_trials(self, qubit):
        rep, _ = overcomplete_rep(qubit, np.random.default_rng(1), extra=4)
        peaks = []
        for trials in (AUDIT_BLOCK_TRIALS, 10 * AUDIT_BLOCK_TRIALS):
            tracemalloc.start()
            try:
                audit_representation(rep, [qubit], trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_memory_does_not_grow_with_trials_across_pairs(self):
        # a block holds all four pairs' channel stacks at once, and no more
        rep, systems = _qubit_and_qutrit()
        peaks = []
        for trials in (AUDIT_BLOCK_TRIALS, 10 * AUDIT_BLOCK_TRIALS):
            tracemalloc.start()
            try:
                audit_representation(rep, systems, trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestFramesFromChiPhi:
    """``SystemSlot.to_pair`` recovers the frame/dual pair of an extracted ``(chi, phi)`` slot."""

    def test_round_trip(self, qubit, rng):
        rep, pair = overcomplete_rep(qubit, rng)
        back = extract_chi_phi(rep, qubit).to_pair(qubit.dim)
        for got, want in zip(back.frame.elements, pair.frame.elements):
            assert max_abs(got - want) <= 1e-10
        for got, want in zip(back.dual.elements, pair.dual.elements):
            assert max_abs(got - want) <= 1e-10

    def test_gram_matches_chi_phi(self, qubit, rng):
        rep, _ = overcomplete_rep(qubit, rng, extra=2)
        slot = extract_chi_phi(rep, qubit)
        back = slot.to_pair(qubit.dim)
        # independent Gram computation reproduces the idempotent chi @ phi
        gram = np.array([
            [np.trace(f.conj().T @ g) for g in back.dual.elements]
            for f in back.frame.elements
        ])
        chi_phi = Representation({"s": slot}, validate=False).id_image("s")
        assert max_abs(gram - chi_phi) <= 1e-9

    def test_functorial_case_biorthogonal(self, qubit):
        rep, _ = kd_rep(qubit)
        back = extract_chi_phi(rep, qubit).to_pair(qubit.dim)
        assert max_abs(build_representation({"s": back}).id_image("s") - np.eye(4)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_pair_and_slot_round_trip_exactly(self, d, extra, canonical, seed):
        rng = np.random.default_rng(seed)
        frame = random_frame(d, d * d + extra, rng)
        if canonical:
            pair = canonical_dual(frame)
        else:
            pair = DualPair(frame, random_frame(d, d * d + extra, rng), validate=False)
        slot = SystemSlot.from_pair(pair)
        again = SystemSlot.from_pair(slot.to_pair(d, validate=False))
        assert np.array_equal(again.rep, slot.rep) and np.array_equal(again.recon, slot.recon)
        back = SystemSlot.from_pair(pair).to_pair(d, validate=canonical)
        assert np.array_equal(np.array(back.frame.elements), np.array(pair.frame.elements))
        assert np.array_equal(np.array(back.dual.elements), np.array(pair.dual.elements))
        assert back.labels == pair.labels


class TestNonIdempotentErrorNamesItsObject:
    """Every ``D @ D = D`` check reports what it checked."""

    @staticmethod
    def near_inverse_slot():
        # recon inverts rep to 1e-10, but a 1e4 column off rep's range
        # turns that gap into a 1e-6 idempotency residual
        rep = np.vstack([np.eye(4), np.zeros((1, 4))])
        recon = np.hstack([np.eye(4) * (1 + 1e-10), np.full((4, 1), 1e4)])
        return SystemSlot("abcde", rep, recon)

    def test_representation_names_the_system(self, qubit):
        with pytest.raises(NonIdempotentError, match="identity image on system 'quantum-2'"):
            Representation({qubit.label: self.near_inverse_slot()})

    def test_overflowing_identity_image_fails(self):
        # D = 1e400 I overflows, and D @ D - D is NaN: that is no pass
        huge = SystemSlot("ab", np.eye(2) * 1e200, np.eye(2) * 1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonIdempotentError, match="'s' is not idempotent .residual nan"):
            Representation({"s": huge})

    def test_split_idempotent_names_the_matrix(self, rng):
        with pytest.raises(NonIdempotentError, match="^matrix is not idempotent"):
            split_idempotent(random_complex_matrix(rng, 3))

    def test_extraction_names_chi_phi(self, qubit):
        rep = Representation({qubit.label: self.near_inverse_slot()}, validate=False)
        with pytest.raises(NonIdempotentError, match=r"^chi @ phi is not idempotent"):
            extract_chi_phi(rep, qubit)


class TestToyTheory:
    """A theory the package does not bundle, built as data through the public
    API: the triangle, with its vertices as states and its facets as effects."""

    @staticmethod
    def triangle():
        angles = 2 * np.pi * np.arange(3) / 3
        states = np.column_stack([np.cos(angles), np.sin(angles), np.ones(3)])
        # facet effect j is 1 on vertex j and 0 on the others: E @ S.T = I
        effects = np.linalg.inv(states.T)
        return GptSystem("triangle", states, effects, np.array([0.0, 0.0, 1.0]), np.eye(3))

    def test_facet_representation_audits(self):
        tri = self.triangle()
        assert tri.dim is None and tri.real_dim == 3
        slot = SystemSlot("abc", tri.effects, np.linalg.pinv(tri.effects))
        report = audit_representation(Representation({tri.label: slot}), [tri], trials=5)
        assert report.passes() and report.functorial and report.dim_check
        assert report.discard_preserving and report.discard_residual <= 1e-12

    def test_corrupted_reconstruction_is_caught(self, rng):
        tri = self.triangle()
        slot = SystemSlot("abc", tri.effects, rng.standard_normal((3, 3)))
        rep = Representation({tri.label: slot}, validate=False)
        assert not audit_representation(rep, [tri], trials=5).functorial
        with pytest.raises(InjectivityError, match="left inverse"):
            extract_chi_phi(rep, tri)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="systems without a Hilbert dimension have no process "
                       "sampler, so their audits check no process (ROADMAP item 6)")
    @pytest.mark.parametrize("kind", ["triangle", "classical"])
    def test_corrupted_reconstruction_fails_the_audit(self, kind, rng):
        system = self.triangle() if kind == "triangle" else make_system("classical", 3)
        slot = SystemSlot("abc", system.effects, rng.standard_normal((3, 3)))
        rep = Representation({system.label: slot}, validate=False)
        assert not audit_representation(rep, [system], trials=5).passes()
