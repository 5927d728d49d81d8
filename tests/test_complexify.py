import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasirep import complexify
from quasirep.cli import EXIT_CHECK_FAILED, main
from quasirep.complexify import (
    COHERENCE_BLOCK_ENTRIES,
    COHERENCE_RESIDUAL_ATOL,
    PairVector,
    complexify_map,
    embed,
    monoidal_coherence,
    pair_kron,
    pair_to_coord,
    scalar_mul,
)
from quasirep.linalg import max_abs, numerical_rank


class TestEmbed:
    def test_simple_vector(self):
        p = embed(np.array([1.0, 2.0]))
        assert np.array_equal(p.real, [1, 2]) and np.array_equal(p.imag, [0, 0])

    def test_zero(self):
        p = embed(np.zeros(3))
        assert max_abs(p.stack()) == 0

    def test_structure_matches_scalar_i(self, rng):
        # the complex structure J = scalar_mul(1j, .) sends (w, 0) to (0, w),
        # the pair form of i (w + i0)
        w = rng.standard_normal(4)
        stacked = scalar_mul(1j, embed(w)).stack()
        expected = PairVector(np.zeros(4), w).stack()
        assert max_abs(stacked - expected) == 0

    def test_structure_squares_to_minus_identity(self, rng):
        p = PairVector(rng.standard_normal(3), rng.standard_normal(3))
        assert np.array_equal(scalar_mul(1j, scalar_mul(1j, p)).stack(), -p.stack())


class TestComplexifyMap:
    def test_identity(self):
        out = complexify_map(np.eye(3))
        assert out.dtype == complex and np.array_equal(out, np.eye(3))

    def test_real_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(complexify_map(swap), swap.astype(complex))

    def test_composition_exact(self, rng):
        # direct matrix product oracle: promotion commutes with composition
        g = rng.standard_normal((3, 2))
        f = rng.standard_normal((2, 4))
        assert np.array_equal(complexify_map(g @ f), complexify_map(g) @ complexify_map(f))

    def test_linearity_exact(self, rng):
        f = rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3))
        alpha, beta = rng.standard_normal(2)
        lhs = complexify_map(alpha * f + beta * g)
        rhs = alpha * complexify_map(f) + beta * complexify_map(g)
        assert np.array_equal(lhs, rhs)

    def test_faithful(self, rng):
        f = rng.standard_normal((2, 2))
        g = f.copy()
        g[0, 0] = np.nextafter(g[0, 0], np.inf)  # smallest representable change
        assert np.array_equal(complexify_map(f), complexify_map(f))
        assert not np.array_equal(complexify_map(f), complexify_map(g))

    def test_pair_action_componentwise(self, rng):
        from quasirep.complexify import apply_complexified

        f = rng.standard_normal((3, 2))
        p = PairVector(rng.standard_normal(2), rng.standard_normal(2))
        out = apply_complexified(f, p)
        assert max_abs(out.real - f @ p.real) == 0
        assert max_abs(out.imag - f @ p.imag) == 0


def _kron(x, y):
    """Row by row Kronecker product of two stacks, each row through ``np.kron``."""
    return np.array([np.kron(a, b) for a, b in zip(x, y)])


def _outer(x, y):
    """Kronecker product on the last axis of two broadcasting stacks."""
    out = np.einsum("...i,...j->...ij", x, y)
    return out.reshape(*out.shape[:-2], -1)


# Wrong monoidal products on stacks, (p.real, p.imag, q.real, q.imag) -> (re, im).
def _split_complex(pr, pi, qr, qi):
    # the imag (x) imag term with its sign flipped: (w1 + j w2)(v1 + j v2) with
    # j*j = +1 is bilinear and associative, so only unitality can tell it from mu
    return _outer(pr, qr) + _outer(pi, qi), _outer(pr, qi) + _outer(pi, qr)


def _swapped(pr, pi, qr, qi):
    # q (x) p: associative and unital, but it maps the basis tensor e_i (x) e_j to
    # e_j (x) e_i, and f (x) g then acts on the wrong factors
    return _outer(qr, pr) - _outer(qi, pi), _outer(qi, pr) + _outer(qr, pi)


def _conjugated_left(pr, pi, qr, qi):
    # conj(p) q: natural, since conjugation commutes with real maps, but
    # neither associative nor unital
    return _outer(pr, qr) + _outer(pi, qi), _outer(pr, qi) - _outer(pi, qr)


def _swapped_conjugated(pr, pi, qr, qi):
    # q (x) conj(p), both defects above at once: fails every check but epsilon
    return _outer(qr, pr) + _outer(qi, pi), _outer(qi, pr) - _outer(qr, pi)


def _nan_imag(pr, pi, qr, qi):
    # the right real part and a NaN imaginary part: a maximum that drops NaN
    # would read every check as passed
    re = _outer(pr, qr) - _outer(pi, qi)
    return re, np.full_like(re, np.nan)


class TestCoherence:
    def test_dims_one_is_complex_multiplication(self, rng):
        for _ in range(10):
            z = complex(rng.standard_normal(), rng.standard_normal())
            w = complex(rng.standard_normal(), rng.standard_normal())
            p = PairVector(np.array([z.real]), np.array([z.imag]))
            q = PairVector(np.array([w.real]), np.array([w.imag]))
            out = pair_kron(p, q)
            assert complex(out.real[0] + 1j * out.imag[0]) == pytest.approx(z * w)

    def test_report_two_three(self):
        report = monoidal_coherence(2, 3, trials=50, seed=11)
        assert report.epsilon_iso and report.mu_iso
        assert report.naturality_max_residual <= COHERENCE_RESIDUAL_ATOL

    def test_report_associativity_unitality(self):
        report = monoidal_coherence(2, 2, trials=50, seed=7, dim_z=2)
        assert report.associativity_max_residual <= COHERENCE_RESIDUAL_ATOL
        assert report.unitality_max_residual <= COHERENCE_RESIDUAL_ATOL

    def test_report_json_shape(self):
        report = monoidal_coherence(2, 2, trials=5, seed=3)
        data = report.to_json()
        assert set(data) == {
            "epsilon_iso",
            "mu_iso",
            "naturality_max_residual",
            "associativity_max_residual",
            "unitality_max_residual",
            "seed",
        }
        assert data["seed"] == 3

    def test_epsilon_check_catches_a_sign_error(self, monkeypatch):
        # i(a + bi) = -b + ai; a scalar_mul that flips the real part is not
        # complex-linear, and the unit check must say so
        def wrong_sign(alpha, p):
            a, b = alpha.real, alpha.imag
            return PairVector(b * p.imag - a * p.real, b * p.real + a * p.imag)

        assert monoidal_coherence(2, 2, trials=1, seed=5).epsilon_iso
        monkeypatch.setattr(complexify, "scalar_mul", wrong_sign)
        assert not monoidal_coherence(2, 2, trials=1, seed=5).epsilon_iso
        # the same defect reaches the batched unitality check
        assert (monoidal_coherence(2, 3, trials=5, seed=5).unitality_max_residual
                > COHERENCE_RESIDUAL_ATOL)

    def test_epsilon_check_catches_a_conjugating_pair_to_coord(self, monkeypatch):
        # the epsilon check pins pair_to_coord exactly, so no other check repeats it
        assert monoidal_coherence(2, 3, trials=1, seed=5).all_pass
        monkeypatch.setattr(complexify, "pair_to_coord", lambda p: p.real - 1j * p.imag)
        report = monoidal_coherence(2, 3, trials=1, seed=5)
        assert not report.epsilon_iso and not report.all_pass

    @pytest.mark.parametrize(
        "mutant, failing",
        [
            (_split_complex, {"unitality"}),
            (_swapped, {"mu", "naturality"}),
            (_conjugated_left, {"associativity", "unitality"}),
            (_swapped_conjugated, {"mu", "naturality", "associativity", "unitality"}),
            (_nan_imag, {"mu", "naturality", "associativity", "unitality"}),
        ],
        ids=["imag-imag-sign", "swapped-factors", "conjugated-left", "swapped-conjugated",
             "nan-imag"],
    )
    def test_batched_checks_catch_a_wrong_product(self, monkeypatch, tmp_path, mutant, failing):
        monkeypatch.setattr(complexify, "pair_kron",
                            lambda p, q: PairVector(*mutant(p.real, p.imag, q.real, q.imag)))
        # one full block of trials and a partial one
        trials = COHERENCE_BLOCK_ENTRIES // 12 + 5
        report = monoidal_coherence(2, 3, trials=trials, seed=9, dim_z=2)
        assert report.mu_iso == ("mu" not in failing)
        for check in ("naturality", "associativity", "unitality"):
            residual = getattr(report, f"{check}_max_residual")
            assert (residual > COHERENCE_RESIDUAL_ATOL) == (check in failing), (check, residual)
        assert not report.all_pass
        argv = ["coherence", "--dims", "2,3,2", "--trials", "5", "--out", str(tmp_path / "c.json")]
        assert main(argv) == EXIT_CHECK_FAILED

    def test_codomain_rows_are_exact_at_the_cut_points(self):
        cuts = np.array([-1.0, np.nextafter(-1 / 3, -np.inf), -1 / 3,
                         np.nextafter(1 / 3, -np.inf), 1 / 3, np.nextafter(1.0, -np.inf)])
        assert complexify._codomain_rows(cuts).tolist() == [1, 1, 2, 2, 3, 3]

    def test_a_long_run_hits_every_codomain_shape(self, monkeypatch):
        shapes = set()
        naturality = complexify._naturality

        def spy(f, g, p, q):
            # a map's rows are nonzero draws up to its codomain size, exact zeros after
            sizes = []
            for maps in (f, g):
                kept = np.any(maps != 0, axis=-1)
                sizes.append(kept.sum(axis=1))
                assert np.array_equal(kept, np.arange(3) < sizes[-1][:, None])
            shapes.update(zip(sizes[0].tolist(), sizes[1].tolist()))
            return naturality(f, g, p, q)

        monkeypatch.setattr(complexify, "_naturality", spy)
        assert monoidal_coherence(4, 4, trials=2000, seed=0, dim_z=4).all_pass
        assert shapes == {(m, n) for m in (1, 2, 3) for n in (1, 2, 3)}

    def test_trials_below_one_rejected(self):
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                monoidal_coherence(2, 2, trials=trials)

    @pytest.mark.parametrize("dims, trials", [((4, 4, 4), 2000), ((4, 4, 64), 200)],
                             ids=["444-2000-trials", "4464-200-trials"])
    def test_memory_is_bounded_by_the_block(self, dims, trials):
        dim_w, dim_v, dim_z = dims
        monoidal_coherence(dim_w, dim_v, trials=1, dim_z=dim_z)  # one-time allocations

        def peak(trials):
            tracemalloc.start()
            try:
                monoidal_coherence(dim_w, dim_v, trials=trials, dim_z=dim_z)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 128 trials per block at dims 4, 4, 4 and 8 at dims 4, 4, 64
        block = max(1, COHERENCE_BLOCK_ENTRIES // (dim_w * dim_v * dim_z))
        assert peak(trials) <= 1.25 * peak(block)

    def test_the_benchmark_shape_runs_in_few_blocks(self, monkeypatch):
        # each block has a fixed cost of about 130 numpy calls: 2000 trials at
        # dims 4, 4, 4 take at most 16 blocks
        blocks = []
        block = complexify._coherence_block

        def spy(rng, trials, *dims):
            blocks.append(trials)
            return block(rng, trials, *dims)

        monkeypatch.setattr(complexify, "_coherence_block", spy)
        assert monoidal_coherence(4, 4, trials=2000, seed=0, dim_z=4).all_pass
        assert sum(blocks) == 2000 and len(blocks) <= 16

    def test_scalar_mul_matches_structure(self, rng):
        p = PairVector(rng.standard_normal(3), rng.standard_normal(3))
        # J (w1, w2) = (-w2, w1) on stacked pairs
        eye, zero = np.eye(3), np.zeros((3, 3))
        j = np.block([[zero, -eye], [eye, zero]])
        assert max_abs(scalar_mul(1j, p).stack() - j @ p.stack()) == 0


def _stack(dim):
    return st.shared(st.integers(1, 70), key="rows").flatmap(
        lambda rows: arrays(np.float64, (rows, dim), elements=st.floats(-1e3, 1e3, width=64)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(_stack(d), _stack(d))),
       st.integers(1, 6).flatmap(lambda d: st.tuples(_stack(d), _stack(d))))
def test_stacked_pair_kron_matches_kron_row_by_row(p_parts, q_parts):
    p, q = PairVector(*p_parts), PairVector(*q_parts)
    out = pair_kron(p, q)
    re = _kron(p.real, q.real) - _kron(p.imag, q.imag)
    im = _kron(p.real, q.imag) + _kron(p.imag, q.real)
    assert np.array_equal(out.real, re) and np.array_equal(out.imag, im)
    # a single row gives the same bits as its row of the stack
    first = pair_kron(PairVector(p.real[0], p.imag[0]), PairVector(q.real[0], q.imag[0]))
    assert np.array_equal(first.real, re[0]) and np.array_equal(first.imag, im[0])


def _signed_zeros(rng, shape):
    """Uniform draws with about a quarter exact ``+0.0`` and a quarter exact ``-0.0``."""
    x = rng.uniform(-1, 1, shape)
    x[rng.uniform(size=shape) < 0.25] = 0.0
    x[rng.uniform(size=shape) < 0.33] = -0.0
    return x


class TestKron:
    """``complexify._kron`` is numpy's ``kron`` value for value on its callers' shapes."""

    @pytest.mark.parametrize("w, v", [(1, 1), (2, 3), (4, 4), (8, 2)])
    def test_naturality_maps(self, rng, w, v):
        # _naturality: (T, 3, 1, w) x (T, 1, 3, v), every row of f against every row of g
        f, g = _signed_zeros(rng, (6, 3, w)), _signed_zeros(rng, (6, 3, v))
        out = complexify._kron(f[:, :, None, :], g[:, None, :, :])
        expected = [[[np.kron(f_i, g_j) for g_j in g_t] for f_i in f_t] for f_t, g_t in zip(f, g)]
        assert out.shape == (6, 3, 3, w * v) and np.array_equal(out, expected)

    @pytest.mark.parametrize("w, v", [(1, 1), (2, 3), (4, 4), (8, 2)])
    def test_mu_basis_stacks(self, rng, w, v):
        # _check_mu_iso: (w,) x (v, v), one vector against every row of a stack
        x, y = _signed_zeros(rng, w), _signed_zeros(rng, (v, v))
        assert np.array_equal(complexify._kron(x, y), [np.kron(x, y_j) for y_j in y])

    def test_signed_zeros_are_drawn(self, rng):
        x = _signed_zeros(rng, 400)
        assert np.any((x == 0) & np.signbit(x)) and np.any((x == 0) & ~np.signbit(x))


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       st.integers(1, 300), st.integers(0, 2**32))
def test_reports_do_not_depend_on_the_block_budget(dims, trials, seed):
    # each block is a slice of one stream of trial rows, so a report is the same
    # whether every trial is its own block or all of them share one
    reports = set()
    # the shipped budget is always one of those compared
    for entries in (1, 12, COHERENCE_BLOCK_ENTRIES, 8 * COHERENCE_BLOCK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexify, "COHERENCE_BLOCK_ENTRIES", entries)
            report = monoidal_coherence(dims[0], dims[1], trials=trials, seed=seed, dim_z=dims[2])
        reports.add(json.dumps(report.to_json(), sort_keys=True))
    assert len(reports) == 1


class TestSpanPreservation:
    def test_spanning_set_stays_spanning(self, rng):
        # complex rank of the embedded spanning family equals the dimension
        n = 4
        vectors = rng.standard_normal((n + 2, n))
        assert np.linalg.matrix_rank(vectors) == n
        coords = np.array([pair_to_coord(embed(v)) for v in vectors])
        assert numerical_rank(coords) == n

    def test_covectors_dually(self, rng):
        n = 3
        covs = rng.standard_normal((n, n))
        while np.linalg.matrix_rank(covs) < n:
            covs = rng.standard_normal((n, n))
        promoted = complexify_map(covs)
        assert numerical_rank(promoted) == n
