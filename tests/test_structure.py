import tracemalloc

import numpy as np
import pytest

from quasirep import gpt, structure
from quasirep.errors import (
    DimensionError,
    InjectivityError,
    NonIdempotentError,
    ReconstructionError,
    SplittingMismatchError,
)
from quasirep.frames import (
    DualPair,
    Frame,
    canonical_dual,
    random_frame,
    represent_channel,
    represent_effect,
    represent_state,
)
from quasirep.gpt import make_system, random_channel, random_density
from quasirep.kirkwood_dirac import kd_distribution, kd_frame_pair, preset_bases, random_faithful_bases
from quasirep.linalg import max_abs, rank_range, vectorize
from quasirep.structure import (
    AUDIT_BLOCK_TRIALS,
    Representation,
    SystemSlot,
    _discard_residual,
    audit_representation,
    build_classical_representation,
    build_representation,
    effect_sum_phi,
    extract_chi,
    extract_chi_phi,
    extract_phi,
    frames_from_chi_phi,
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


class TestMatrixSlots:
    """The slot matrices reproduce the frame-level formulas of ``frames``."""

    @pytest.mark.parametrize("kind", ["kd", "overcomplete"])
    def test_matches_frame_formulas(self, qubit, rng, kind):
        rep, pair = kd_rep(qubit) if kind == "kd" else overcomplete_rep(qubit, rng, extra=3)
        label = qubit.label
        for trial in range(5):
            rho = random_density(2, rng)
            e = random_complex_matrix(rng, 2)
            ch = random_channel(2, 2, seed=40 + trial)
            assert max_abs(rep.represent_state(label, rho) - represent_state(pair, rho)) <= 1e-12
            assert max_abs(rep.represent_effect(label, e) - represent_effect(pair, e)) <= 1e-12
            assert max_abs(rep.apply(label, label, ch) - represent_channel(pair, pair, ch)) <= 1e-12

    def test_qubit_to_qutrit_channel(self, qubit, qutrit, rng):
        pair_in = kd_frame_pair(random_faithful_bases(2, seed=4))
        pair_out = canonical_dual(random_frame(3, 11, rng))
        rep = build_representation({qubit.label: pair_in, qutrit.label: pair_out})
        ch = random_channel(2, 3, seed=9)
        gamma = rep.apply(qubit.label, qutrit.label, ch)
        assert gamma.shape == (11, 4)
        assert max_abs(gamma - represent_channel(pair_out, pair_in, ch)) <= 1e-12

    def test_wrong_size_operator_rejected(self, qubit):
        rep, _ = kd_rep(qubit)
        with pytest.raises(DimensionError):
            rep.represent_state(qubit.label, np.eye(3))
        with pytest.raises(DimensionError):
            rep.represent_effect(qubit.label, np.eye(3))
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, qubit.label, random_channel(2, 3, seed=1))

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
            assert np.array_equal(gamma, rep.apply(qubit.label, qutrit.label, ch))
        ops = np.array([random_density(2, rng) for _ in range(4)])
        for rows, single in ((rep.represent_state(qubit.label, ops), rep.represent_state),
                             (rep.represent_effect(qubit.label, ops), rep.represent_effect)):
            assert rows.shape == (4, 6)
            for op, row in zip(ops, rows):
                assert np.array_equal(row, single(qubit.label, op))
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, qutrit.label, stack[:, :, :3])
        with pytest.raises(DimensionError):
            rep.apply(qubit.label, qutrit.label, stack[None])
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rep.apply(qubit.label, qutrit.label, stack)

    def test_classical_effect_side(self):
        sys3 = make_system("classical", 3)
        rep = build_classical_representation({sys3.label: 3})
        assert max_abs(effect_sum_phi(rep, sys3) - np.eye(3)) <= 1e-12
        assert max_abs(extract_phi(rep, sys3) - np.eye(3)) <= 1e-12
        assert _discard_residual(rep, sys3) <= 1e-12


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
        rep = build_classical_representation({sys4.label: 4})
        assert max_abs(extract_chi(rep, sys4) - np.eye(4)) <= 1e-12

    def test_maps_states_correctly(self, qutrit, rng):
        rep, _ = kd_rep(qutrit, seed=5)
        chi = extract_chi(rep, qutrit)
        for op in qutrit.state_ops:
            direct = rep.represent_state(qutrit.label, op)
            assert max_abs(chi @ vectorize(op) - direct) <= 1e-9


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
        cp = extract_chi_phi(rep, qutrit)
        assert cp.hilbert_dim == 3 and cp.chi.shape == (9, 9)


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

        lhs = rep.apply(qubit.label, qubit.label, ch)
        rhs = chi @ _complexified_process(ch, qubit, qubit) @ phi_bad
        assert max_abs(lhs - rhs) > 1e-3


class TestSemiFunctoriality:
    def test_composition_multiplicative(self, qubit, qutrit, rng):
        for sys, seed in ((qubit, 1), (qutrit, 2)):
            rep, pair = overcomplete_rep(sys, rng)
            for trial in range(20):
                ch1 = random_channel(sys.dim, sys.dim, seed=100 * seed + trial)
                ch2 = random_channel(sys.dim, sys.dim, seed=200 * seed + trial)
                from quasirep.frames import compose_channels

                lhs = rep.apply(sys.label, sys.label, compose_channels(ch2, ch1))
                rhs = rep.apply(sys.label, sys.label, ch2) @ rep.apply(sys.label, sys.label, ch1)
                assert max_abs(lhs - rhs) <= 1e-9

    def test_linearity_random_combinations(self, qubit, rng):
        rep, _ = kd_rep(qubit)
        ch1 = random_channel(2, 2, seed=31)
        ch2 = random_channel(2, 2, seed=32)
        g1 = rep.apply(qubit.label, qubit.label, ch1)
        g2 = rep.apply(qubit.label, qubit.label, ch2)
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
        assert report.all_core_pass

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
        assert report.functorial and report.all_core_pass

    def test_mixed_frames_break_adequacy(self, qubit, rng):
        f1 = random_frame(2, 4, rng)
        f2 = random_frame(2, 4, rng)
        mixed = DualPair(f1, canonical_dual(f2).dual, validate=False)
        rep = Representation({qubit.label: SystemSlot.from_pair(mixed)}, validate=False)
        report = audit_representation(rep, [qubit], trials=8, seed=2)
        assert not report.empirically_adequate
        assert not report.all_core_pass

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
        assert report.all_core_pass and report.functorial

    @pytest.mark.parametrize("seed", [2**32, 2**100])
    def test_large_seeds_match_default_rng(self, qubit, qutrit, seed, monkeypatch):
        # (seed, t) spans 3 and 5 entropy words; 5 overflows SeedSequence's 4-word pool
        rep = build_representation({
            qubit.label: kd_frame_pair(random_faithful_bases(2, seed=4)),
            qutrit.label: kd_frame_pair(random_faithful_bases(3, seed=5)),
        })
        trials = AUDIT_BLOCK_TRIALS + 1
        batched = audit_representation(rep, [qubit, qutrit], trials=trials, seed=seed)

        def one_by_one(entropies):
            return [np.random.default_rng(e) for e in entropies]

        monkeypatch.setattr(gpt, "child_generators", one_by_one)
        monkeypatch.setattr(structure, "child_generators", one_by_one)
        reference = audit_representation(rep, [qubit, qutrit], trials=trials, seed=seed)
        assert batched.to_json() == reference.to_json()

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


class TestFramesFromChiPhi:
    def test_round_trip(self, qubit, rng):
        rep, pair = overcomplete_rep(qubit, rng)
        cp = extract_chi_phi(rep, qubit)
        back = frames_from_chi_phi(cp)
        for got, want in zip(back.frame.elements, pair.frame.elements):
            assert max_abs(got - want) <= 1e-10
        for got, want in zip(back.dual.elements, pair.dual.elements):
            assert max_abs(got - want) <= 1e-10

    def test_gram_matches_chi_phi(self, qubit, rng):
        rep, _ = overcomplete_rep(qubit, rng, extra=2)
        cp = extract_chi_phi(rep, qubit)
        back = frames_from_chi_phi(cp)
        # independent Gram computation reproduces the idempotent
        gram = np.array([
            [np.trace(f.conj().T @ g) for g in back.dual.elements]
            for f in back.frame.elements
        ])
        assert max_abs(gram - cp.chi @ cp.phi) <= 1e-9

    def test_functorial_case_biorthogonal(self, qubit):
        rep, _ = kd_rep(qubit)
        back = frames_from_chi_phi(extract_chi_phi(rep, qubit))
        assert back.is_biorthogonal()
