import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep.errors import DimensionError, ReconstructionError, SingularFrameError
from quasirep.frames import (
    RANDOM_FRAME_MAX_DRAWS,
    TRACE_EXCESS_ATOL,
    Channel,
    DualPair,
    Frame,
    canonical_dual,
    channel_stack,
    frame_from_json,
    frame_operator,
    frame_to_json,
    identity_channel,
    random_frame,
    represent_channel,
)
from quasirep.gpt import random_channel, random_density, random_effect
from quasirep.linalg import max_abs, vectorize
from quasirep.structure import SystemSlot, build_representation

from conftest import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, random_complex_matrix


def pauli_frame():
    return Frame([p / np.sqrt(2) for p in PAULIS], labels=["I", "X", "Y", "Z"])


def matrix_unit_frame(d=2):
    elements, labels = [], []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1
            elements.append(e)
            labels.append(f"E{i}{j}")
    return Frame(elements, labels=labels)


def depolarizing_kraus(d):
    """Kraus family of ``X -> Tr(X) I / d``: matrix units ``E_ij / sqrt(d)``."""
    return np.eye(d * d).reshape(d * d, d, d) / np.sqrt(d)


def composed_kraus(second, first):
    """Kraus family of ``second o first``: the products ``k2 @ k1``, ``k2``-major."""
    products = second.kraus[:, None] @ first.kraus[None]
    return products.reshape(-1, second.d_out, first.d_in)


def act(superop, x):
    """The image of operator ``x`` under a superoperator: ``superop @ vec(x)``, reshaped."""
    d_out = math.isqrt(superop.shape[0])
    return (superop @ vectorize(x)).reshape(d_out, d_out)


def choi(superop, d_out, d_in):
    """The Choi matrix ``sum_k vec(K_k) vec(K_k)†``: ``superop`` realigned back."""
    return superop.reshape(d_out, d_out, d_in, d_in).swapaxes(1, 2).reshape(d_out * d_in, -1)


def represented(pair):
    """The one-system representation ``"s"`` of ``pair``; broken pairs are kept."""
    return build_representation({"s": pair}, validate=False)


def state_coeffs(pair, x):
    """``rep @ vec(x)``: the state ``x`` as a process from the trivial system."""
    return represented(pair).apply(None, "s", np.reshape(x, (-1, 1)))[:, 0]


def effect_coeffs(pair, e):
    """``conj(vec(e)) @ recon``: the effect ``e`` as a process to the trivial system."""
    return represented(pair).apply("s", None, np.reshape(e, (1, -1)).conj())[0]


def born_residual(pair, rho, eff):
    """``|sum_l xi_l mu_l - Tr(eff rho)|`` through the representation."""
    return abs(effect_coeffs(pair, eff) @ state_coeffs(pair, rho) - np.trace(eff @ rho))


def reconstruct(pair, mu):
    """``sum_l mu_l G_l``, the reconstruction identity written out."""
    return sum(m * g for m, g in zip(mu, pair.dual.elements))


def frame_from_rows(m, d):
    """The frame whose conjugated vectorized elements are the rows of ``m``."""
    labels = tuple(str(i) for i in range(len(m)))
    return SystemSlot(labels, m, np.linalg.pinv(m)).to_pair(d, validate=False).frame


def frame_operator_oracle(frame):
    """Column-by-column application of S(A) = sum Tr(A† F) F on matrix units."""
    d = frame.dim
    cols = []
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1
            image = sum(np.trace(f.conj().T @ unit) * f for f in frame.elements)
            cols.append(vectorize(image))
    return np.array(cols).T


class TestFrameStack:
    """A frame holds its elements as one stack; any input form gives the same one."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_list_and_stack_inputs_agree(self, n, d, seed):
        stack = random_complex_matrix(np.random.default_rng(seed), n * d, d).reshape(n, d, d)
        from_list, from_stack = Frame(list(stack)), Frame(stack)
        assert np.array_equal(from_list.vec_matrix, from_stack.vec_matrix)
        assert np.array_equal(from_stack.vec_matrix, np.array([vectorize(e) for e in stack]))
        assert all(np.array_equal(e, f) for e, f in zip(from_list.elements, stack))
        assert from_stack.dim == d and len(from_stack) == n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_malformed_inputs_keep_their_error_classes(self, n, d, data):
        elements = list(np.ones((n, d, d), dtype=complex))
        with pytest.raises(DimensionError):
            Frame([])
        with pytest.raises(DimensionError):
            Frame(np.empty((0, d, d)))
        with pytest.raises(DimensionError):  # ragged
            Frame(elements + [np.eye(d + 1)])
        with pytest.raises(DimensionError):  # non-square
            Frame(np.ones((n, d, d + 1)))
        with pytest.raises(DimensionError):  # 1-D elements
            Frame(np.ones((n, d)))
        with pytest.raises(DimensionError):  # a 1-D element among matrices
            Frame(elements + [np.ones(d)])
        bad = np.array(elements)
        index = tuple(data.draw(st.integers(0, m - 1)) for m in bad.shape)
        bad[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf, 1j * np.nan]))
        with pytest.raises(ValueError, match="finite"):
            Frame(bad)
        with pytest.raises(ValueError, match="finite"):
            Frame(list(bad))

    def test_stack_is_a_private_read_only_copy(self):
        stack = np.array(PAULIS)
        frame = Frame(stack)
        stack[0] *= 2
        assert np.array_equal(frame.elements[0], np.eye(2))
        with pytest.raises(ValueError):
            frame.elements[0][0, 0] = 2
        with pytest.raises(ValueError):
            frame.vec_matrix[0, 0] = 2

    def test_repeated_labels_rejected(self):
        # a report or KD table names each element by its label
        with pytest.raises(DimensionError, match="distinct"):
            Frame(PAULIS, labels=["a", "b", "a", "c"])
        with pytest.raises(DimensionError, match="distinct"):
            Frame(PAULIS, labels=[1, "1", 2, 3])  # labels are compared as strings
        assert Frame(PAULIS, labels=["a", "b", "c", "d"]).labels == ("a", "b", "c", "d")


class TestFrameOperator:
    def test_normalized_paulis_are_parseval(self):
        s = frame_operator(pauli_frame())
        assert max_abs(s - np.eye(4)) <= 1e-12

    def test_against_direct_summation(self, rng):
        frame = random_frame(2, 6, rng)
        assert max_abs(frame_operator(frame) - frame_operator_oracle(frame)) <= 1e-10

    def test_one_dimensional(self):
        s = frame_operator(Frame([np.array([[1.0]])]))
        assert np.array_equal(s, np.array([[1.0 + 0j]]))

    def test_scaling_is_quadratic(self, rng):
        frame = random_frame(2, 5, rng)
        c = 1.7 - 0.4j
        scaled = Frame([c * e for e in frame.elements])
        assert max_abs(frame_operator(scaled) - abs(c) ** 2 * frame_operator(frame)) <= 1e-10

    def test_hermitian_psd(self, rng):
        s = frame_operator(random_frame(3, 11, rng))
        assert max_abs(s - s.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(s).min() >= -1e-12


class TestCanonicalDual:
    def test_paulis_self_dual(self):
        pair = canonical_dual(pauli_frame())
        for f, g in zip(pair.frame.elements, pair.dual.elements):
            assert max_abs(f - g) <= 1e-12

    def test_matrix_units_self_dual(self):
        pair = canonical_dual(matrix_unit_frame())
        for f, g in zip(pair.frame.elements, pair.dual.elements):
            assert max_abs(f - g) <= 1e-12
        assert max_abs(represented(pair).id_image("s") - np.eye(4)) <= 1e-12

    def test_non_spanning_rejected(self):
        frame = Frame([np.eye(2, dtype=complex), SIGMA_Z])
        with pytest.raises(SingularFrameError):
            canonical_dual(frame)

    def test_overcomplete_reconstructs(self, rng):
        pair = canonical_dual(random_frame(2, 7, rng))
        assert pair.reconstruction_residual <= 1e-9


class TestDualPairValidation:
    def test_mismatched_dual_rejected(self, rng):
        frame = random_frame(2, 4, rng)
        other = random_frame(2, 4, rng)
        with pytest.raises(ReconstructionError):
            DualPair(frame, other)

    def test_lenient_mode_holds_broken_pairs(self, rng):
        frame = random_frame(2, 4, rng)
        other = random_frame(2, 4, rng)
        pair = DualPair(frame, other, validate=False)
        assert pair.reconstruction_residual > 1e-3


class TestRepresentState:
    def test_matrix_units_vectorize(self, rng):
        pair = canonical_dual(matrix_unit_frame())
        rho = random_density(2, rng)
        assert max_abs(state_coeffs(pair, rho) - vectorize(rho)) <= 1e-12

    def test_pauli_bloch_coefficients(self, rng):
        # direct trace oracle: mu_k = Tr(sigma_k rho) / sqrt(2)
        pair = canonical_dual(pauli_frame())
        r = rng.uniform(-0.5, 0.5, 3)
        rho = 0.5 * (np.eye(2) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)
        expected = np.array([1.0, r[0], r[1], r[2]]) / np.sqrt(2)
        assert max_abs(state_coeffs(pair, rho) - expected) <= 1e-12

    def test_linear_in_state(self, rng):
        pair = canonical_dual(random_frame(2, 5, rng))
        x, y = random_complex_matrix(rng, 2), random_complex_matrix(rng, 2)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        lhs = state_coeffs(pair, alpha * x + beta * y)
        rhs = alpha * state_coeffs(pair, x) + beta * state_coeffs(pair, y)
        assert max_abs(lhs - rhs) <= 1e-10


class TestRepresentEffect:
    def test_identity_on_matrix_units(self):
        pair = canonical_dual(matrix_unit_frame())
        xi = effect_coeffs(pair, np.eye(2))
        assert max_abs(xi - np.array([1, 0, 0, 1])) <= 1e-12

    def test_conjugate_linear(self, rng):
        pair = canonical_dual(random_frame(2, 4, rng))
        a = random_complex_matrix(rng, 2)
        assert max_abs(effect_coeffs(pair, 1j * a) + 1j * effect_coeffs(pair, a)) <= 1e-12

    def test_effect_operator_reconstruction(self, rng):
        # adjoint reconstruction: E = sum_l conj(xi_l) F_l
        pair = canonical_dual(random_frame(2, 6, rng))
        eff = random_effect(2, rng)
        xi = effect_coeffs(pair, eff)
        rebuilt = sum(x.conj() * f for x, f in zip(xi, pair.frame.elements))
        assert max_abs(rebuilt - eff) <= 1e-9
        # the unconjugated sum is NOT a reconstruction for complex frames
        naive = sum(x * f for x, f in zip(xi, pair.frame.elements))
        assert max_abs(naive - eff) > 1e-3

    def test_effect_functional_reconstruction(self, rng):
        # Tr(E† X) = sum_l xi_l mu(l|X) for arbitrary X, any dual pair
        pair = canonical_dual(random_frame(2, 6, rng))
        eff = random_effect(2, rng)
        xi = effect_coeffs(pair, eff)
        for _ in range(10):
            x = random_complex_matrix(rng, 2)
            mu = state_coeffs(pair, x)
            assert abs(xi @ mu - np.trace(eff.conj().T @ x)) <= 1e-9


class TestRepresentChannel:
    def test_identity_channel_biorthogonal(self):
        pair = canonical_dual(pauli_frame())
        gamma = represent_channel(pair, pair, identity_channel(2))
        assert max_abs(gamma - np.eye(4)) <= 1e-12

    def test_identity_channel_overcomplete_idempotent(self, rng):
        elements = [p / np.sqrt(2) for p in PAULIS] + [random_complex_matrix(rng, 2)]
        pair = canonical_dual(Frame(elements))
        gamma = represent_channel(pair, pair, identity_channel(2))
        assert max_abs(gamma @ gamma - gamma) <= 1e-9
        assert max_abs(gamma - np.eye(5)) > 1e-3
        assert np.linalg.matrix_rank(gamma) == 4

    def test_depolarizing_in_pauli_pair(self):
        pair = canonical_dual(pauli_frame())
        gamma = represent_channel(pair, pair, Channel(depolarizing_kraus(2)))
        assert max_abs(gamma - np.diag([1.0, 0, 0, 0])) <= 1e-12

    def test_multiplicative_over_composition(self, rng):
        pair = canonical_dual(random_frame(2, 5, rng))
        for trial in range(20):
            ch1 = random_channel(2, 2, seed=1000 + trial)
            ch2 = random_channel(2, 2, seed=2000 + trial)
            lhs = represent_channel(pair, pair, Channel(composed_kraus(ch2, ch1)))
            rhs = represent_channel(pair, pair, ch2) @ represent_channel(pair, pair, ch1)
            assert max_abs(lhs - rhs) <= 1e-9

    def test_dimension_mismatch(self, rng):
        pair2 = canonical_dual(random_frame(2, 4, rng))
        pair3 = canonical_dual(random_frame(3, 9, rng))
        with pytest.raises(DimensionError):
            represent_channel(pair2, pair2, random_channel(2, 3, seed=1))
        with pytest.raises(DimensionError):
            represent_channel(pair3, pair2, random_channel(2, 2, seed=1))


class TestReconstruct:
    def test_round_trip(self, rng):
        for d in (2, 3):
            pair = canonical_dual(random_frame(d, d * d, rng))
            for _ in range(20):
                x = random_complex_matrix(rng, d)
                back = reconstruct(pair, state_coeffs(pair, x))
                assert max_abs(back - x) <= 1e-9

    def test_round_trip_overcomplete(self, rng):
        pair = canonical_dual(random_frame(2, 7, rng))
        x = random_complex_matrix(rng, 2)
        assert max_abs(reconstruct(pair, state_coeffs(pair, x)) - x) <= 1e-9


class TestBornProbe:
    def test_projector_pair(self, rng):
        rho = np.diag([1.0, 0.0]).astype(complex)
        pair = canonical_dual(random_frame(2, 4, rng))
        assert born_residual(pair, rho, rho) <= 1e-10
        probability = effect_coeffs(pair, rho) @ state_coeffs(pair, rho)
        assert probability == pytest.approx(1.0)

    def test_kd_pair_random_inputs(self, rng):
        from quasirep.kirkwood_dirac import kd_frame_pair, preset_bases

        pair = kd_frame_pair(preset_bases("hadamard", 2))
        for _ in range(20):
            assert born_residual(pair, random_density(2, rng), random_effect(2, rng)) <= 1e-10

    def test_mismatched_dual_fails_loudly(self, rng):
        frame = random_frame(2, 4, rng)
        wrong_dual = random_frame(2, 4, rng)
        pair = DualPair(frame, wrong_dual, validate=False)
        worst = max(
            born_residual(pair, random_density(2, rng), random_effect(2, rng))
            for _ in range(10)
        )
        assert worst > 1e-3


class TestFrameFromLinearMap:
    """``SystemSlot.to_pair`` turns the rows of a linear map into frame elements."""

    def test_identity_map_gives_matrix_units(self):
        frame = frame_from_rows(np.eye(4), 2)
        assert frame.is_spanning()
        expected = matrix_unit_frame()
        for got, want in zip(frame.elements, expected.elements):
            assert max_abs(got - want) <= 1e-12

    def test_recovers_kd_frame(self):
        # rows of the KD representation matrix are built directly from the
        # distribution formula, then pulled back through the extraction
        from quasirep.kirkwood_dirac import preset_bases

        kb = preset_bases("hadamard", 2)
        rows = []
        expected = []
        for a in range(2):
            for b in range(2):
                ket_a, ket_b = kb.basis_a[:, a], kb.basis_b[:, b]
                f_ab = np.outer(ket_a, ket_b.conj()) * (ket_a.conj() @ ket_b)
                expected.append(f_ab)
                rows.append(vectorize(f_ab).conj())
        frame = frame_from_rows(np.array(rows), 2)
        assert frame.is_spanning()
        for got, want in zip(frame.elements, expected):
            assert max_abs(got - want) <= 1e-12

    def test_rank_deficient_flagged(self, rng):
        m = random_complex_matrix(rng, 4, 4)
        m[3] = m[2]  # repeated row: only 3 independent functionals
        assert not frame_from_rows(m, 2).is_spanning()

    def test_functional_consistency(self, rng):
        m = random_complex_matrix(rng, 5, 4)
        frame = frame_from_rows(m, 2)
        x = random_complex_matrix(rng, 2)
        direct = m @ vectorize(x)
        via_frame = np.array([np.trace(f.conj().T @ x) for f in frame.elements])
        assert max_abs(direct - via_frame) <= 1e-10


class TestChannel:
    def test_trace_increasing_rejected(self):
        with pytest.raises(ValueError):
            Channel([np.eye(2) * 1.5])

    def test_overflowing_gram_rejected(self):
        # gram - I holds inf, so its eigenvalues are NaN: a NaN excess must not pass
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="increases trace"):
                Channel([[[1e200, 0], [0, 1]]])

    def test_choi_psd_and_trace_preserving(self):
        for seed in range(20):
            superop, gram = channel_stack(random_channel(2, 2, seed=seed).kraus)
            assert np.linalg.eigvalsh(choi(superop, 2, 2)).min() >= -1e-12
            assert max_abs(gram - np.eye(2)) <= 1e-10

    def test_apply_matches_kraus_sum(self, rng):
        ch = random_channel(2, 3, seed=5)
        x = random_complex_matrix(rng, 2)
        direct = sum(k @ x @ k.conj().T for k in ch.kraus)
        assert max_abs(act(ch.superop, x) - direct) <= 1e-12

    def test_unitary_channel(self, rng):
        from quasirep.linalg import haar_unitary

        u = haar_unitary(3, rng)
        superop = channel_stack(u[None])[0]
        x = random_complex_matrix(rng, 3)
        assert max_abs(superop @ vectorize(x) - vectorize(u @ x @ u.conj().T)) <= 1e-12


@st.composite
def kraus_stacks(draw, max_ops=8, max_dim=4, min_dim=1):
    """Complex ``(n, d_out, d_in)`` stacks, square or not."""
    n = draw(st.integers(1, max_ops))
    d_out = draw(st.integers(min_dim, max_dim))
    d_in = draw(st.integers(min_dim, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal((n, d_out, d_in))


def assert_kron_sum(superop, stack):
    """``superop`` is ``sum kron(K, conj(K))`` up to the entrywise rounding of a
    length-n complex dot product: ``(n + 1) eps sum kron(|K|, |K|)``."""
    reference = sum(np.kron(k, k.conj()) for k in stack)
    scale = sum(np.kron(np.abs(k), np.abs(k)) for k in stack)
    assert np.all(np.abs(superop - reference) <= (len(stack) + 1) * np.finfo(float).eps * scale)


def _contraction(stack):
    """``stack`` scaled so that ``sum K†K <= I``: a valid Kraus family."""
    gram = np.einsum("kji,kjl->il", stack.conj(), stack)
    return stack / np.sqrt(np.linalg.eigvalsh(gram).max())


class TestChannelStack:
    """The stacked-Kraus build against the per-operator reference formulas."""

    @settings(max_examples=60, deadline=None)
    @given(kraus_stacks())
    def test_superop_equals_kron_sum(self, stack):
        ch = Channel(list(stack), validate=False)
        assert ch.kraus.shape == stack.shape
        assert_kron_sum(ch.superop, stack)
        _, d_out, d_in = stack.shape
        gram = sum(k.conj().T @ k for k in stack)
        built = channel_stack(stack, validate=False)[1]
        assert max_abs(built - gram) <= 1e-12 * max(1.0, max_abs(gram))
        reference = sum(np.outer(vectorize(k), vectorize(k).conj()) for k in stack)
        realigned = choi(ch.superop, d_out, d_in)
        assert max_abs(realigned - reference) <= 1e-12 * max(1.0, max_abs(reference))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=5, max_size=5), st.integers(0, 2**32 - 1))
    def test_compose_is_k2_major_kraus_products(self, sizes, seed):
        # the Kraus products of a composition give the superoperator product
        n2, n1, d_out, d_mid, d_in = sizes
        rng = np.random.default_rng(seed)
        second = Channel(_contraction(random_complex_matrix(rng, n2 * d_out, d_mid)
                                      .reshape(n2, d_out, d_mid)))
        first = Channel(_contraction(random_complex_matrix(rng, n1 * d_mid, d_in)
                                     .reshape(n1, d_mid, d_in)))
        composed = Channel(composed_kraus(second, first))
        reference = np.array([k2 @ k1 for k2 in second.kraus for k1 in first.kraus])
        assert max_abs(composed.kraus - reference) <= 1e-12
        assert max_abs(composed.superop - second.superop @ first.superop) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(kraus_stacks(), st.data())
    def test_malformed_stacks_rejected(self, stack, data):
        _, d_out, d_in = stack.shape
        with pytest.raises(DimensionError):
            Channel(stack[:0])
        with pytest.raises(DimensionError):
            Channel([])
        with pytest.raises(DimensionError):
            Channel(list(stack) + [np.ones((d_out + 1, d_in))])
        with pytest.raises(DimensionError):
            Channel(stack[0])
        bad = stack.copy()
        index = tuple(data.draw(st.integers(0, m - 1)) for m in bad.shape)
        bad[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf, 1j * np.nan]))
        with pytest.raises(ValueError, match="finite"):
            Channel(bad, validate=False)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_channel_stack_equals_channels(self, count, n, d_out, d_in, seed):
        rng = np.random.default_rng(seed)
        families = np.array([
            _contraction(random_complex_matrix(rng, n * d_out, d_in).reshape(n, d_out, d_in))
            for _ in range(count)
        ])
        superops, grams = channel_stack(families)
        for family, superop, gram in zip(families, superops, grams):
            ch = Channel(family)
            assert np.array_equal(superop, ch.superop)  # one formula for both
            assert_kron_sum(superop, family)
            assert max_abs(gram - sum(k.conj().T @ k for k in family)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(kraus_stacks(max_ops=64, min_dim=8, max_dim=8))
    def test_d8_superop_equals_kron_sum(self, stack):
        # an 8 -> 8 Stinespring channel has 64 Kraus operators
        assert_kron_sum(channel_stack(stack, validate=False)[0], stack)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.data(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_one_trace_increasing_family_fails_the_stack(self, count, data, d, seed):
        families = np.array([random_channel(d, d, seed=seed + i).kraus for i in range(count)])
        channel_stack(families)
        bad = data.draw(st.integers(0, count - 1))
        families[bad] *= 1.001
        with pytest.raises(ValueError, match="increases trace"):
            channel_stack(families)
        channel_stack(families, validate=False)

    def test_gram_the_screen_cannot_clear_goes_to_eigvalsh(self, monkeypatch):
        # gram - I = [[0, 1e-5], [1e-5, -0.5]]: its Gershgorin bound is 1e-5,
        # its largest eigenvalue about 2e-10, so the family passes
        values, vectors = np.linalg.eigh(np.array([[1, 1e-5], [1e-5, 0.5]]))
        root = (vectors * np.sqrt(values)) @ vectors.T  # Hermitian: root† root is the gram
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        channel_stack(root[None, None])
        assert shapes == [(1, 2, 2)]
        channel_stack(np.array([random_channel(2, 3, seed=s).kraus for s in range(4)]))
        assert len(shapes) == 1  # trace preserving: the screen clears the stack

    @pytest.mark.parametrize("scale", [1.001, np.sqrt(1.5)])
    def test_trace_increasing_stack_reports_its_excess(self, scale):
        families = np.array([random_channel(2, 2, seed=s).kraus for s in range(3)])
        families[1] *= scale
        grams = channel_stack(families, validate=False)[1]
        excess = np.linalg.eigvalsh(grams - np.eye(2)).max()
        message = f"channel increases trace by up to {excess:.3e}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            channel_stack(families)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.floats(0.5, 1.5), st.integers(0, 2**32 - 1))
    def test_screened_verdict_equals_eigvalsh(self, count, d_out, d_in, contract, scale, seed):
        # trace-preserving or contracting families, scaled up or down
        rng = np.random.default_rng(seed)
        if contract:
            families = np.array([
                _contraction(random_complex_matrix(rng, 2 * d_out, d_in).reshape(2, d_out, d_in))
                for _ in range(count)
            ])
        else:
            families = np.array([random_channel(d_in, d_out, seed=seed + i).kraus
                                 for i in range(count)])
        families[rng.integers(count)] *= scale
        grams = channel_stack(families, validate=False)[1]
        excess = np.linalg.eigvalsh(grams - np.eye(d_in)).max()
        if excess > TRACE_EXCESS_ATOL:
            with pytest.raises(ValueError, match=re.escape(f"{excess:.3e}")):
                channel_stack(families)
        else:
            channel_stack(families)

    def test_stack_is_a_private_copy(self):
        k = np.eye(2, dtype=complex)[None].copy()
        ch = Channel(k)
        k[0] *= 0.5
        assert ch.kraus[0, 0, 0] == 1 and np.array_equal(ch.superop, np.eye(4))
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 2

    def test_trace_preserving_and_depolarizing(self):
        for d in (1, 2, 3):
            superop, gram = channel_stack(depolarizing_kraus(d))
            assert max_abs(gram - np.eye(d)) <= 1e-12
            x = random_complex_matrix(np.random.default_rng(d), d)
            assert max_abs(act(superop, x) - np.trace(x) * np.eye(d) / d) <= 1e-12
        assert max_abs(channel_stack(np.eye(2)[None] * 0.5)[1] - np.eye(2) / 4) == 0


class _ZeroGenerator:
    """Draws only zeros, so no family it produces spans."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_random_frame_gives_up_after_draw_cap():
    with pytest.raises(SingularFrameError, match=str(RANDOM_FRAME_MAX_DRAWS)):
        random_frame(2, 4, _ZeroGenerator())


class TestSerialization:
    def test_frame_round_trip(self, rng):
        frame = random_frame(2, 5, rng)
        data = json.loads(json.dumps(frame_to_json(frame)))
        back = frame_from_json(data)
        assert isinstance(back, Frame)
        for got, want in zip(back.elements, frame.elements):
            assert np.array_equal(got, want)

    def test_pair_round_trip(self, rng):
        pair = canonical_dual(random_frame(2, 4, rng))
        data = json.loads(json.dumps(frame_to_json(pair.frame, dual=pair.dual)))
        back = frame_from_json(data)
        assert isinstance(back, DualPair)
        assert back.reconstruction_residual <= 1e-9

    def test_malformed_frame(self):
        with pytest.raises(ValueError):
            frame_from_json({"d": 2})
