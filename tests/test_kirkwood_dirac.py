import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep.errors import DimensionError, NonFaithfulBasesError
from quasirep.frames import Channel, identity_channel, represent_channel
from quasirep.gpt import make_system, random_density
from quasirep.kirkwood_dirac import (
    KdBases,
    kd_distribution,
    kd_frame_pair,
    preset_bases,
    random_faithful_bases,
)
from quasirep.linalg import max_abs
from quasirep.structure import audit_representation, build_representation

from conftest import SIGMA_Y


def id_image(pair):
    """The identity image ``rep @ recon`` of a pair: its frame/dual overlap matrix."""
    return build_representation({"kd": pair}).id_image("kd")


def kd_oracle(basis_a, basis_b, rho):
    """Entry-by-entry direct evaluation of <a|rho|b><b|a>."""
    d = rho.shape[0]
    table = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            ket_a = basis_a[:, a]
            ket_b = basis_b[:, b]
            table[a, b] = (ket_a.conj() @ rho @ ket_b) * (ket_b.conj() @ ket_a)
    return table


class TestDistribution:
    def test_mub_ground_state(self):
        kb = preset_bases("hadamard", 2)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        expected = np.array([[0.5, 0.5], [0.0, 0.0]])
        assert max_abs(kd_distribution(kb, rho) - expected) <= 1e-12

    def test_mub_sigma_y_state_is_complex(self):
        kb = preset_bases("hadamard", 2)
        rho = (np.eye(2) + SIGMA_Y) / 2
        table = kd_distribution(kb, rho)
        assert table[0, 0] == pytest.approx((1 - 1j) / 4, abs=1e-12)

    def test_matches_direct_oracle(self, rng):
        for d in (2, 3):
            kb = random_faithful_bases(d, seed=d)
            rho = random_density(d, rng)
            oracle = kd_oracle(kb.basis_a, kb.basis_b, rho)
            assert max_abs(kd_distribution(kb, rho) - oracle) <= 1e-12

    def test_entries_sum_to_trace(self, rng):
        kb = preset_bases("fourier", 3)
        for _ in range(20):
            rho = random_density(3, rng)
            assert abs(kd_distribution(kb, rho).sum() - 1) <= 1e-12

    def test_defined_for_non_faithful_bases(self, rng):
        kb = preset_bases("computational", 2)  # off-diagonal overlaps vanish
        assert not kb.faithful
        rho = random_density(2, rng)
        table = kd_distribution(kb, rho)
        assert abs(table.sum() - 1) <= 1e-12

    def test_xz_plane_states_are_real(self, rng):
        kb = preset_bases("hadamard", 2)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            rho = 0.5 * (
                np.eye(2)
                + np.sin(theta) * np.array([[0, 1], [1, 0]])
                + np.cos(theta) * np.diag([1, -1])
            ).astype(complex)
            assert max_abs(kd_distribution(kb, rho).imag) <= 1e-12


class TestFramePair:
    def test_mub_frame_element(self):
        kb = preset_bases("hadamard", 2)
        pair = kd_frame_pair(kb)
        plus = np.array([1, 1]) / np.sqrt(2)
        expected = np.outer([1, 0], plus.conj()) / np.sqrt(2)  # |0><+| / sqrt(2)
        assert max_abs(pair.frame.elements[0] - expected) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_broadcast_stacks_equal_the_elementwise_definition(self, d, seed):
        kb = random_faithful_bases(d, seed=seed)
        pair = kd_frame_pair(kb)
        index = 0
        for a in range(d):
            for b in range(d):
                ket_bra = np.outer(kb.basis_a[:, a], kb.basis_b[:, b].conj())
                overlap = kb.overlaps[a, b]
                assert np.array_equal(pair.frame.elements[index], ket_bra * overlap)
                assert np.array_equal(pair.dual.elements[index], ket_bra / overlap.conj())
                assert pair.labels[index] == f"({kb.a_labels[a]},{kb.b_labels[b]})"
                index += 1

    def test_biorthogonality(self):
        kb = preset_bases("hadamard", 2)
        pair = kd_frame_pair(kb)
        assert max_abs(id_image(pair) - np.eye(4)) <= 1e-12

    def test_biorthogonality_random_bases(self):
        for d, seed in ((2, 5), (3, 6)):
            pair = kd_frame_pair(random_faithful_bases(d, seed=seed))
            assert max_abs(id_image(pair) - np.eye(d * d)) <= 1e-12

    def test_identical_bases_rejected(self):
        kb = preset_bases("computational", 2)
        with pytest.raises(NonFaithfulBasesError):
            kd_frame_pair(kb)

    def test_distribution_agrees_with_frame_representation(self, rng):
        for d in (2, 3):
            kb = random_faithful_bases(d, seed=10 + d)
            rep = build_representation({"s": kd_frame_pair(kb)})
            for _ in range(20):
                rho = random_density(d, rng)
                mu = rep.apply(None, "s", rho.reshape(-1, 1)).reshape(d, d)
                assert max_abs(mu - kd_distribution(kb, rho)) <= 1e-12


class TestRepresentation:
    def test_audit_passes(self):
        sys2 = make_system("quantum", 2)
        rep = build_representation({sys2.label: kd_frame_pair(preset_bases("hadamard", 2))})
        report = audit_representation(rep, [sys2], trials=10, seed=4)
        assert report.semifunctorial and report.empirically_adequate
        assert report.linear and report.discard_preserving
        assert report.functorial and report.dim_check
        assert report.decomposition_residual <= 1e-8

    def test_identity_channel_is_identity_matrix(self):
        pair = kd_frame_pair(preset_bases("hadamard", 2))
        gamma = represent_channel(pair, pair, identity_channel(2))
        assert max_abs(gamma - np.eye(4)) <= 1e-12

    def test_hadamard_unitary_squares_to_identity(self):
        pair = kd_frame_pair(random_faithful_bases(2, seed=3))
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        gamma = represent_channel(pair, pair, Channel([h]))
        assert max_abs(gamma @ gamma - np.eye(4)) <= 1e-9

    def test_discard_preservation(self, rng):
        # frame elements sum to the identity operator
        pair = kd_frame_pair(random_faithful_bases(3, seed=1))
        total = sum(pair.frame.elements)
        assert max_abs(total - np.eye(3)) <= 1e-12

    def test_propagates_non_faithful_error(self):
        sys2 = make_system("quantum", 2)
        with pytest.raises(NonFaithfulBasesError):
            build_representation({sys2.label: kd_frame_pair(preset_bases("computational", 2))})


class TestBases:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            KdBases(np.eye(2) * 2, np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            KdBases(np.eye(2), np.eye(3))

    def test_fourier_faithful_any_dim(self):
        for d in (2, 3, 4):
            assert preset_bases("fourier", d).faithful

    def test_hadamard_only_d2(self):
        with pytest.raises(DimensionError):
            preset_bases("hadamard", 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_bases("mub", 2)

    def test_random_bases_deterministic(self):
        a = random_faithful_bases(3, seed=42)
        b = random_faithful_bases(3, seed=42)
        assert max_abs(a.basis_b - b.basis_b) == 0
