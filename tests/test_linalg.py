import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep.linalg import (
    RANK_RTOL,
    cmat_from_json,
    cmat_to_json,
    haar_isometries,
    haar_unitary,
    max_abs,
    rank_range,
    vectorize,
)

from conftest import random_complex_matrix


class TestVectorize:
    def test_matrix_unit_convention(self):
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        v = vectorize(e01)
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1
        assert np.array_equal(v, expected)

    def test_sandwich_identity(self, rng):
        # vec(A X B) against the kron formula computed by direct multiply
        a, x, b = (random_complex_matrix(rng, 2) for _ in range(3))
        direct = vectorize(a @ x @ b)
        kron_route = np.kron(a, b.T) @ vectorize(x)
        assert max_abs(direct - kron_route) <= 1e-10


class TestRankRange:
    def test_identity(self):
        rank, basis, pinv = rank_range(np.eye(3))
        assert rank == 3
        assert max_abs(pinv - np.eye(3)) <= 1e-12
        assert basis.shape == (3, 3)

    def test_proportional_rows(self):
        rank, _, _ = rank_range(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert rank == 1

    def test_range_projector(self, rng):
        m = random_complex_matrix(rng, 4, 7)
        _, basis, _ = rank_range(m)
        proj = basis @ basis.conj().T
        assert max_abs(proj @ proj - proj) <= 1e-10

    def test_zero_matrix(self):
        rank, basis, pinv = rank_range(np.zeros((3, 2)))
        assert rank == 0
        assert basis.shape == (3, 0)
        assert pinv.shape == (2, 3) and max_abs(pinv) == 0

    def test_moore_penrose_identities(self, rng):
        m = random_complex_matrix(rng, 5, 3)
        _, _, pinv = rank_range(m)
        assert max_abs(m @ pinv @ m - m) <= 1e-10
        assert max_abs(pinv @ m @ pinv - pinv) <= 1e-10
        assert max_abs((m @ pinv).conj().T - m @ pinv) <= 1e-10
        assert max_abs((pinv @ m).conj().T - pinv @ m) <= 1e-10

    def test_double_pseudo_inverse(self, rng):
        m = random_complex_matrix(rng, 4)
        _, _, pinv = rank_range(m)
        _, _, back = rank_range(pinv)
        assert max_abs(back - m) <= RANK_RTOL * max_abs(m) * 100


def test_haar_unitary(rng):
    u = haar_unitary(4, rng)
    assert max_abs(u.conj().T @ u - np.eye(4)) <= 1e-12


def _haar_unitary_reference(dim, rng):
    """Full QR of two separately drawn ``dim x dim`` Gaussian blocks, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 64), st.data(), st.integers(0, 2**32 - 1))
def test_haar_isometry_is_leading_columns_of_haar_unitary(dim, data, seed):
    cols = data.draw(st.integers(1, dim))
    thin_rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    v = haar_isometries(thin_rng.standard_normal((2, dim, dim))[..., :cols])
    assert np.array_equal(v, haar_unitary(dim, full_rng)[:, :cols])
    # same draws consumed: the generators continue identically
    assert thin_rng.standard_normal() == full_rng.standard_normal()
    assert np.array_equal(
        haar_unitary(dim, np.random.default_rng(seed)),
        _haar_unitary_reference(dim, np.random.default_rng(seed)),
    )
    assert max_abs(v.conj().T @ v - np.eye(cols)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data(), st.integers(0, 2**32 - 1))
def test_haar_isometry_of_leading_columns_is_leading_columns(d_in, d_out, data, seed):
    # why a channel may draw only the d_in columns it keeps: the isometry of a
    # prefix of Ginibre columns is the prefix of the wider isometry, so both
    # are distributed as the leading columns of a Haar unitary
    rows = d_out**2 * d_in
    cols = data.draw(st.integers(1, min(rows, 64)))
    keep = data.draw(st.integers(1, cols))
    g = np.random.default_rng(seed).standard_normal((2, rows, cols))
    assert max_abs(haar_isometries(g[..., :keep]) - haar_isometries(g)[..., :keep]) <= 1e-12


class TestJson:
    def test_round_trip(self, rng):
        m = random_complex_matrix(rng, 2, 3)
        data = json.loads(json.dumps(cmat_to_json(m)))
        assert np.array_equal(cmat_from_json(data), m)

    def test_malformed(self):
        with pytest.raises(ValueError):
            cmat_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
        with pytest.raises(ValueError):
            cmat_from_json({"rows": 2})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cmat_from_json({"rows": 1, "cols": 1, "re": [float("nan")], "im": [0.0]})
