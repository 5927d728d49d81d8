import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import gpt
from quasirep.errors import DimensionError, SpanningError
from quasirep.frames import Channel
from quasirep.gpt import (
    GptProcess,
    channel_block_shape,
    channel_to_process,
    density_stack,
    effect_stack,
    identity_resolution,
    make_system,
    process_matrices,
    random_channel,
    random_density,
    random_effect,
    random_kraus,
    tomographic_decompose,
)
from quasirep.linalg import max_abs

from conftest import SIGMA_X


def reassemble(states, effects, coeff):
    """Oracle: rebuild sum_ij c_ij s_i e_j as an explicit matrix."""
    out = np.zeros((states.shape[1], effects.shape[1]))
    for i, s in enumerate(states):
        for j, e in enumerate(effects):
            out += coeff[i, j] * np.outer(s, e)
    return out


class TestMakeSystem:
    def test_classical_delta_basis(self):
        sys3 = make_system("classical", 3)
        assert np.array_equal(sys3.u, np.ones(3))
        assert max_abs(sys3.t - np.eye(3)) <= 1e-12
        assert np.array_equal(sys3.states, np.eye(3))

    def test_quantum_states_span(self):
        sys2 = make_system("quantum", 2)
        assert sys2.states.shape == (4, 4)
        assert np.linalg.matrix_rank(sys2.states) == 4

    def test_quantum_states_unit_trace(self):
        for d in (2, 3):
            sys_d = make_system("quantum", d)
            for coords in sys_d.states:
                assert sys_d.u @ coords == pytest.approx(1.0)

    def test_quantum_states_are_valid(self):
        sys3 = make_system("quantum", 3)
        for op in (sys3.iso @ sys3.states.T).T.reshape(-1, 3, 3):
            assert np.linalg.eigvalsh(op).min() >= -1e-12
            assert np.trace(op).real == pytest.approx(1.0)

    def test_dim_zero_rejected(self):
        with pytest.raises(DimensionError):
            make_system("classical", 0)

    def test_quantum_dim_cap(self):
        make_system("quantum", 8)
        with pytest.raises(DimensionError):
            make_system("quantum", 9)

    def test_classical_size_cap(self):
        # the real-dimension ceiling of quantum systems, MAX_QUANTUM_DIM**2
        make_system("classical", 64)
        with pytest.raises(DimensionError):
            make_system("classical", 65)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="'boxworld'; known kinds: quantum, classical"):
            make_system("boxworld", 2)

    def test_record_is_frozen(self):
        # t is derived once, on construction: an assigned field would leave it stale
        sys2 = make_system("classical", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys2.states = 2 * np.eye(2)
        doubled = dataclasses.replace(sys2, states=2 * np.eye(2))
        assert np.array_equal(doubled.t, identity_resolution(doubled))
        assert max_abs(doubled.t - np.eye(2) / 2) <= 1e-12


def operator_to_coords(x, iso):
    """Real coordinates ``iso† vec(x)`` of a self-adjoint operator (or a stack)."""
    z = np.asarray(x).reshape(*np.shape(x)[:-2], -1) @ iso.conj()
    assert max_abs(z.imag) <= 1e-10
    return z.real


def _operator_route(d):
    """Reference: the tomography family's outer products and the identity
    mapped to real coordinates through ``iso†``."""
    eye = np.eye(d, dtype=complex)
    kets = list(eye)
    for j in range(d):
        for k in range(j + 1, d):
            kets += [(eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)]
    ops = np.array([np.outer(ket, ket.conj()) for ket in kets])
    iso = gpt._basis_isomorphism(d)
    return operator_to_coords(ops, iso), operator_to_coords(np.eye(d), iso)


class TestClosedFormQuantum:
    """The quantum constructor's index arithmetic against the operator route."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_operator_route(self, d):
        sys_d = make_system("quantum", d)
        states, u = _operator_route(d)
        assert max_abs(sys_d.states - states) <= 1e-15
        assert max_abs(sys_d.effects - states) <= 1e-15
        assert np.array_equal(sys_d.u, u)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_states_are_pure(self, d):
        sys_d = make_system("quantum", d)
        for op in (sys_d.iso @ sys_d.states.T).T.reshape(-1, d, d):
            assert max_abs(op @ op - op) <= 1e-15 and max_abs(op - op.conj().T) == 0
            assert abs(np.trace(op) - 1) <= 1e-15
            assert np.linalg.matrix_rank(op) == 1

    def test_takes_no_svd(self, monkeypatch):
        calls = []
        for name in ("svd", "pinv"):
            def spy(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        for d in range(1, 9):
            make_system("quantum", d)
        assert calls == []

    def test_inverts_the_family_once(self, monkeypatch):
        # states and effects are equal, so one inverse serves both sides
        calls = []
        inv = np.linalg.inv

        def spy(a):
            calls.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", spy)
        for d in range(1, 9):
            calls.clear()
            make_system("quantum", d)
            assert calls == [(d * d, d * d)]


class TestIdentityResolution:
    def test_classical_identity(self):
        sys2 = make_system("classical", 2)
        assert max_abs(identity_resolution(sys2) - np.eye(2)) <= 1e-12

    def test_qubit_reassembles_identity(self):
        sys2 = make_system("quantum", 2)
        rebuilt = reassemble(sys2.states, sys2.effects, sys2.t)
        assert max_abs(rebuilt - np.eye(4)) <= 1e-10

    def test_all_bundled_systems(self):
        for kind, dims in (("quantum", (1, 2, 3, 4)), ("classical", (1, 3, 8))):
            for d in dims:
                sys_d = make_system(kind, d)
                rebuilt = reassemble(sys_d.states, sys_d.effects, sys_d.t)
                assert max_abs(rebuilt - np.eye(sys_d.real_dim)) <= 1e-10

    def test_overcomplete_state_list(self, rng):
        # an extra spanning state keeps a (non-unique) minimal-norm solution
        sys2 = make_system("quantum", 2)
        extra = np.vstack([sys2.states, sys2.states[:1] * 0.5 + sys2.states[1:2] * 0.5])
        sys2 = dataclasses.replace(
            sys2, states=extra, effects=np.vstack([sys2.effects, sys2.effects[:1]])
        )
        t = identity_resolution(sys2)
        assert max_abs(reassemble(sys2.states, sys2.effects, t) - np.eye(4)) <= 1e-10


class TestTomographicDecompose:
    def test_classical_identity_process(self):
        sys2 = make_system("classical", 2)
        proc = GptProcess(sys2, sys2, np.eye(2))
        assert max_abs(tomographic_decompose(proc) - np.eye(2)) <= 1e-12

    def test_qubit_unitary_conjugation(self):
        sys2 = make_system("quantum", 2)
        proc = channel_to_process(Channel([SIGMA_X]), sys2, sys2)
        r = tomographic_decompose(proc)
        assert max_abs(reassemble(sys2.states, sys2.effects, r) - proc.matrix) <= 1e-10

    def test_random_processes(self, rng):
        sys2 = make_system("quantum", 2)
        sys3 = make_system("quantum", 3)
        for trial in range(10):
            proc = channel_to_process(random_channel(2, 3, seed=trial), sys2, sys3)
            r = tomographic_decompose(proc)
            rebuilt = reassemble(sys3.states, sys2.effects, r)
            assert max_abs(rebuilt - proc.matrix) <= 1e-10

    def test_mismatched_systems_rejected(self):
        sys2 = make_system("classical", 2)
        sys3 = make_system("classical", 3)
        with pytest.raises(DimensionError):
            GptProcess(sys2, sys3, np.eye(2))

    def test_non_spanning_raises(self):
        sys2 = make_system("classical", 2)
        line = np.array([[1.0, 0.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        tomographic_decompose(GptProcess(sys2, sys2, swap))  # fine on the real system
        # the solve tomographic_decompose runs on a process between crippled systems
        with pytest.raises(SpanningError):
            gpt._decompose_matrix(line, line, swap)
        # and no record of the crippled system can be built
        with pytest.raises(SpanningError):
            dataclasses.replace(sys2, states=line, effects=line)

    def test_singular_square_family_takes_the_pseudo_inverse(self):
        line = np.array([[1.0, 0.0], [0.0, 0.0]])
        target = np.array([[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(line)
        assert np.array_equal(gpt._decompose_matrix(line, line, target), target)

    def test_overflowing_inverse_raises_spanning_error(self):
        # the inverse holds 1e300: the coefficients overflow, the square route's residual is NaN
        wide = np.diag([1e300, 1e-300])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpanningError):
                gpt._decompose_matrix(wide, wide, np.eye(2))


def _family(rng, rows, cols, rank):
    """``rows x cols`` matrix of the given rank, singular values in [0.5, 2]."""
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :rank]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:rank]
    return u * rng.uniform(0.5, 2, rank) @ v


def _classical_with(dim, states, effects):
    """The classical record of size ``dim`` with other state and effect rows."""
    return dataclasses.replace(make_system("classical", dim), states=states, effects=effects)


class TestFactoredTomography:
    """The factored solve against the explicit Kronecker design it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
           st.integers(0, 2**32 - 1))
    def test_agrees_with_lstsq_on_the_kronecker_design(self, dim, extra_s, extra_e, deficit, seed):
        rng = np.random.default_rng(seed)
        rank = max(1, dim - deficit)
        states = _family(rng, dim + extra_s, dim, rank)
        effects = _family(rng, dim + extra_e, dim, rank)
        # column (i, j) of the design is kron(s_i, e_j) = vec(outer(s_i, e_j))
        design = np.kron(states.T, effects.T)
        # a target in the span of the pairs, so rank-deficient families decompose too
        target = states.T @ rng.standard_normal((len(states), len(effects))) @ effects
        r = gpt._decompose_matrix(states, effects, target)
        reference = np.linalg.lstsq(design, target.reshape(-1), rcond=None)[0]
        assert max_abs(r - reference.reshape(r.shape)) <= 1e-12
        if rank == dim:
            sys_d = _classical_with(dim, states, effects)
            assert np.array_equal(tomographic_decompose(GptProcess(sys_d, sys_d, target)), r)
            t = identity_resolution(sys_d)
            reference = np.linalg.lstsq(design, np.eye(dim).reshape(-1), rcond=None)[0]
            assert max_abs(t - reference.reshape(t.shape)) <= 1e-12
        else:
            # the identity resolution fails, so the record cannot be built
            with pytest.raises(SpanningError):
                _classical_with(dim, states, effects)

    def test_quantum_8_builds_without_the_design(self):
        # the d = 8 Kronecker design alone would hold 4096**2 floats (134 MB)
        tracemalloc.start()
        try:
            sys8 = make_system("quantum", 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        rebuilt = sys8.states.T @ sys8.t @ sys8.effects
        assert max_abs(rebuilt - np.eye(64)) <= 1e-10


class TestRandomChannel:
    def test_trivial_system(self):
        ch = random_channel(1, 1, seed=0)
        assert max_abs(ch.superop - np.array([[1.0]])) <= 1e-12

    def test_deterministic(self):
        a = random_channel(2, 3, seed=11)
        b = random_channel(2, 3, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    def test_choi_and_trace(self):
        for seed in range(20):
            ch = random_channel(2, 2, seed=seed)
            choi = ch.superop.reshape(2, 2, 2, 2).swapaxes(1, 2).reshape(4, 4)
            assert np.linalg.eigvalsh(choi).min() >= -1e-12
            gram = sum(k.conj().T @ k for k in ch.kraus)
            assert max_abs(gram - np.eye(2)) <= 1e-10

    def test_dims_capped(self):
        with pytest.raises(DimensionError):
            random_channel(9, 2, seed=0)
        with pytest.raises(DimensionError, match="do not fit a 2 -> 3 channel"):
            random_kraus(2, 3, np.zeros((2, 18, 3)))


def _haar_isometry_reference(rows, cols, rng):
    """QR of two separately drawn ``rows x cols`` Gaussian blocks, phases fixed."""
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


class TestStackedDraws:
    """The batched builders the audit uses, against one-at-a-time references."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4))
    def test_random_kraus_equals_random_channel(self, d_in, d_out, seeds):
        shape = channel_block_shape(d_in, d_out)
        normals = np.array([np.random.default_rng(seed).standard_normal(shape) for seed in seeds])
        stack = random_kraus(d_in, d_out, normals)
        env = d_in * d_out
        assert stack.shape == (len(seeds), env, d_out, d_in)
        for seed, kraus in zip(seeds, stack):
            assert np.array_equal(kraus, random_channel(d_in, d_out, seed).kraus)
            # the definition: a Haar isometry from d_in Ginibre columns on
            # output (x) environment, Kraus operator e from rows e, e + env, ...
            v = _haar_isometry_reference(d_out * env, d_in, np.random.default_rng(seed))
            reference = v.reshape(d_out, env, d_in).transpose(1, 0, 2)
            assert np.array_equal(kraus, reference)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**63 - 1))
    def test_random_density_and_effect_match_their_definitions(self, d, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rho = random_density(d, rng)
        g = ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))
        g = g @ g.conj().T
        assert np.array_equal(rho, g / np.trace(g).real)
        eff = random_effect(d, rng)
        v = _haar_isometry_reference(d, d, ref)
        assert np.array_equal(eff, v.conj().T @ np.diag(ref.uniform(0, 1, d)) @ v)
        assert rng.standard_normal() == ref.standard_normal()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**63 - 1))
    def test_stacked_states_and_effects_equal_single_builds(self, d, count, seed):
        rng = np.random.default_rng(seed)
        normals = rng.standard_normal((count, 2, 2, d, d))
        weights = rng.uniform(0, 1, (count, d))
        rhos, effs = density_stack(normals[:, 0]), effect_stack(normals[:, 1], weights)
        for i in range(count):
            assert np.array_equal(rhos[i], density_stack(normals[i, 0]))
            assert np.array_equal(effs[i], effect_stack(normals[i, 1], weights[i]))

    def test_process_matrices_check_every_element(self):
        sys2 = make_system("quantum", 2)
        channels = [random_channel(2, 2, seed=s) for s in range(4)]
        stack = np.array([ch.superop for ch in channels])
        coords = process_matrices(stack, sys2, sys2)
        for ch, m in zip(channels, coords):
            assert np.array_equal(m, channel_to_process(ch, sys2, sys2).matrix)
        stack[2] *= 1j  # not Hermiticity-preserving: complex real coordinates
        with pytest.raises(ValueError, match="self-adjointness"):
            process_matrices(stack, sys2, sys2)
        with pytest.raises(DimensionError):
            process_matrices(stack, sys2, make_system("quantum", 3))


class TestClassicalProcesses:
    def test_closed_diagrams_in_unit_interval(self, rng):
        sys3 = make_system("classical", 3)
        for _ in range(20):
            gamma = rng.uniform(0, 1, (3, 3))
            gamma /= gamma.sum(axis=0) * rng.uniform(1, 2)
            mu = rng.uniform(0, 1, 3)
            mu /= mu.sum() * rng.uniform(1, 2)
            xi = rng.uniform(0, 1, 3)
            value = xi @ gamma @ mu
            assert -1e-12 <= value <= 1 + 1e-12


class TestChannelToProcess:
    def test_real_coordinates(self):
        sys2 = make_system("quantum", 2)
        proc = channel_to_process(random_channel(2, 2, seed=7), sys2, sys2)
        assert proc.matrix.dtype == float

    def test_action_agrees_with_channel(self, rng):
        sys2 = make_system("quantum", 2)
        sys3 = make_system("quantum", 3)
        ch = random_channel(2, 3, seed=13)
        proc = channel_to_process(ch, sys2, sys3)
        rho = random_density(2, rng)
        out_coords = proc.matrix @ operator_to_coords(rho, sys2.iso)
        direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
        assert max_abs((sys3.iso @ out_coords).reshape(3, 3) - direct) <= 1e-10

    def test_wrong_dims(self):
        sys2 = make_system("quantum", 2)
        with pytest.raises(DimensionError):
            channel_to_process(random_channel(3, 3, seed=0), sys2, sys2)
