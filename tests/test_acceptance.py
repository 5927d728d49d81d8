"""Acceptance suite: every release-gating property at its pinned tolerance.

Each criterion is one test that prints a PASS line on success; a failing
criterion shows up as an ordinary pytest failure.  Desk scale throughout:
Hilbert dimensions 2..4, index sets up to 25 labels, classical sizes up to 8.
"""

import json
import time

import numpy as np
import pytest

from quasirep.cli import EXIT_OK, main
from quasirep.complexify import (
    COHERENCE_RESIDUAL_ATOL,
    complexify_map,
    embed,
    monoidal_coherence,
    pair_to_coord,
)
from quasirep.frames import (
    Frame,
    canonical_dual,
    identity_channel,
    random_frame,
    represent_channel,
)
from quasirep.gpt import (
    GptProcess,
    channel_to_process,
    identity_resolution,
    make_system,
    random_channel,
    random_density,
    random_effect,
)
from quasirep.kirkwood_dirac import kd_distribution, kd_frame_pair, preset_bases, random_faithful_bases
from quasirep.linalg import cmat_to_json, max_abs, numerical_rank, rank_range, vectorize
from quasirep.structure import (
    SystemSlot,
    build_representation,
    extract_chi,
    extract_phi,
    split_idempotent,
    splitting_isomorphism,
    verify_decomposition,
)

from conftest import random_complex_matrix


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_born_rule_adequacy():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        pair = canonical_dual(random_frame(d, d * d + trial % 3, rng))
        rho = random_density(d, rng)
        eff = random_effect(d, rng)
        rep = build_representation({"s": pair})
        # the state from the trivial system, the effect to it
        mu = rep.apply(None, "s", rho.reshape(-1, 1))
        xi = rep.apply("s", None, eff.reshape(1, -1).conj())
        lhs = (xi @ mu)[0, 0]
        worst = max(worst, abs(lhs - np.trace(eff @ rho)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"born residual {worst:.3e}"
    assert elapsed <= 5.0, f"took {elapsed:.2f}s"
    report(1, f"200 born probes at d=2,3: max residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_identity_image_idempotent():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(50):
        d = (2, 3)[trial % 2]
        size = d * d + trial % 4  # up to d**2 + 3
        pair = canonical_dual(random_frame(d, size, rng))
        gamma = represent_channel(pair, pair, identity_channel(d))
        worst = max(worst, max_abs(gamma @ gamma - gamma))
    assert worst <= 1e-9, f"idempotency residual {worst:.3e}"
    report(2, f"50 random spanning frames: max |G@G - G| = {worst:.2e}")


def test_criterion_03_kd_exactness():
    kb = preset_bases("hadamard", 2)

    # independent direct-evaluation oracle, frozen values
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    frozen_table = np.array([[0.5, 0.5], [0.0, 0.0]], dtype=complex)
    assert max_abs(kd_distribution(kb, rho0) - frozen_table) <= 1e-12

    rho_y = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert abs(kd_distribution(kb, rho_y)[0, 0] - (1 - 1j) / 4) <= 1e-12

    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        rho = random_density(2, rng)
        worst = max(worst, abs(kd_distribution(kb, rho).sum() - np.trace(rho)))
    assert worst <= 1e-12, f"sum-rule residual {worst:.3e}"
    report(3, f"MUB tables exact; sum rule over 100 states: {worst:.2e}")


def test_criterion_04_kd_biorthogonality():
    worst = 0.0
    for d, seed in ((2, 41), (2, 42), (3, 43), (3, 44)):
        pair = kd_frame_pair(random_faithful_bases(d, seed=seed))
        gram = build_representation({"kd": pair}).id_image("kd")
        worst = max(worst, max_abs(gram - np.eye(d * d)))
    assert worst <= 1e-12, f"gram residual {worst:.3e}"
    report(4, f"KD frame/dual biorthogonality at d=2,3: {worst:.2e}")


def test_criterion_05_structure_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    qubit = make_system("quantum", 2)
    qutrit = make_system("quantum", 3)
    systems = {2: qubit, 3: qutrit}

    functorial = build_representation({
        qubit.label: kd_frame_pair(random_faithful_bases(2, seed=51)),
        qutrit.label: kd_frame_pair(random_faithful_bases(3, seed=52)),
    })
    semi = build_representation({
        qubit.label: canonical_dual(random_frame(2, 6, rng)),
        qutrit.label: canonical_dual(random_frame(3, 11, rng)),
    })

    routes = [(2, 2), (3, 3), (2, 3), (3, 2)]
    worst_decomp = 0.0
    for rep in (functorial, semi):
        for idx, (da, db) in enumerate(routes):
            channels = [random_channel(da, db, seed=500 + 10 * idx + k) for k in range(5)]
            residual = verify_decomposition(rep, systems[da], systems[db], channels)
            worst_decomp = max(worst_decomp, residual)
        for sys in (qubit, qutrit):
            chi = extract_chi(rep, sys)
            phi = extract_phi(rep, sys, chi)
            assert max_abs(phi @ chi - np.eye(sys.dim**2)) <= 1e-9
            assert numerical_rank(chi) == sys.dim**2

    elapsed = time.perf_counter() - start
    assert worst_decomp <= 1e-8, f"decomposition residual {worst_decomp:.3e}"
    assert elapsed <= 30.0, f"took {elapsed:.2f}s"
    report(5, f"40 channels, both rep types: decomposition {worst_decomp:.2e} in {elapsed:.2f}s")


def test_criterion_06_splitting_uniqueness():
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(20):
        n = 4 + trial % 4
        r = 1 + trial % (n - 1)
        chi = random_complex_matrix(rng, n, r)
        while numerical_rank(chi) < r:
            chi = random_complex_matrix(rng, n, r)
        _, _, phi = rank_range(chi)
        d_mat = chi @ phi

        s1 = split_idempotent(d_mat)
        s2 = (chi, phi)
        xi = splitting_isomorphism(s1, s2)
        worst = max(
            worst,
            max_abs(s2[0] @ xi - s1[0]),
            max_abs(xi @ s1[1] - s2[1]),
            max_abs(xi @ (s1[1] @ s2[0]) - np.eye(r)),
        )
    assert worst <= 1e-9, f"intertwiner residual {worst:.3e}"
    report(6, f"20 idempotent splitting pairs: intertwiner residual {worst:.2e}")


def test_criterion_07_complexification_coherence():
    start = time.perf_counter()
    worst = 0.0
    for dims in ((2, 3, 2), (3, 3, 2), (1, 1, 1), (2, 2, 2)):
        rep = monoidal_coherence(dims[0], dims[1], trials=50, seed=71, dim_z=dims[2])
        assert rep.epsilon_iso and rep.mu_iso
        worst = max(
            worst,
            rep.naturality_max_residual,
            rep.associativity_max_residual,
            rep.unitality_max_residual,
        )
    assert worst <= 1e-12, f"coherence residual {worst:.3e}"
    # the CLI's coherence gate is this criterion's tolerance
    assert COHERENCE_RESIDUAL_ATOL == 1e-12

    # span preservation: embedded spanning families keep full complex rank
    rng = np.random.default_rng(107)
    for n in (2, 3, 4):
        vectors = rng.standard_normal((n + 2, n))
        coords = np.array([pair_to_coord(embed(v)) for v in vectors])
        assert numerical_rank(coords) == n
        covs = complexify_map(rng.standard_normal((n, n)) + np.eye(n) * n)
        assert numerical_rank(covs) == n

    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0, f"took {elapsed:.2f}s"
    report(7, f"coherence + span preservation: residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_08_frame_extraction_round_trip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(20):
        d = (2, 3)[trial % 2]
        pair = canonical_dual(random_frame(d, d * d + trial % 3, rng))
        chi, phi = pair.frame.vec_matrix.conj(), pair.dual.vec_matrix.T
        back = SystemSlot(pair.labels, chi, phi).to_pair(d)
        assert back.frame.is_spanning()
        for got, want in ((back.frame, pair.frame), (back.dual, pair.dual)):
            worst = max(worst, max_abs(np.array(got.elements) - np.array(want.elements)))
    assert worst <= 1e-12, f"round-trip residual {worst:.3e}"

    false_positives = 0
    for trial in range(20):
        d = (2, 3)[trial % 2]
        k = d * d - 1 - trial % 2  # deliberately deficient rank
        left = random_complex_matrix(rng, d * d + 1, k)
        right = random_complex_matrix(rng, k, d * d)
        deficient = left @ right
        labels = tuple(str(i) for i in range(d * d + 1))
        slot = SystemSlot(labels, deficient, np.linalg.pinv(deficient))
        false_positives += int(slot.to_pair(d, validate=False).frame.is_spanning())
    assert false_positives == 0
    report(8, f"20 extractions exact ({worst:.2e}); 20 deficient maps all flagged")


def test_criterion_09_tomographic_machinery():
    worst_t = 0.0
    bundled = [make_system("quantum", d) for d in (1, 2, 3, 4)]
    bundled += [make_system("classical", n) for n in (1, 2, 5, 8)]
    for sys in bundled:
        t = identity_resolution(sys)
        design = sum(
            t[i, j] * np.outer(sys.states[i], sys.effects[j])
            for i in range(len(sys.states))
            for j in range(len(sys.effects))
        )
        worst_t = max(worst_t, max_abs(design - np.eye(sys.real_dim)))
    assert worst_t <= 1e-10, f"identity resolution residual {worst_t:.3e}"

    rng = np.random.default_rng(109)
    qubit = make_system("quantum", 2)
    qutrit = make_system("quantum", 3)
    systems = {2: qubit, 3: qutrit}
    worst_r = 0.0
    from quasirep.gpt import tomographic_decompose

    for trial in range(50):
        da, db = ((2, 2), (3, 3), (2, 3), (3, 2))[trial % 4]
        if trial % 5 == 4:
            # plain linear processes exercise the classical route too
            sys_c = make_system("classical", 4)
            mat = rng.uniform(0, 0.2, (4, 4))
            proc = GptProcess(sys_c, sys_c, mat)
        else:
            proc = channel_to_process(
                random_channel(da, db, seed=900 + trial), systems[da], systems[db]
            )
        r = tomographic_decompose(proc)
        rebuilt = sum(
            r[i, j] * np.outer(proc.target.states[i], proc.source.effects[j])
            for i in range(len(proc.target.states))
            for j in range(len(proc.source.effects))
        )
        worst_r = max(worst_r, max_abs(rebuilt - proc.matrix))
    assert worst_r <= 1e-10, f"reassembly residual {worst_r:.3e}"
    report(9, f"identity resolutions {worst_t:.2e}; 50 decompositions {worst_r:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(cmat_to_json(np.array([[1, 0], [0, 0]], dtype=complex))))

    table_bytes = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        code = main([
            "kd-table", "--bases", "fourier", "--dim", "3", "--seed", "23",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        table_bytes.append(out.read_bytes())
    assert table_bytes[0] == table_bytes[1]

    audit_bytes = []
    for name in ("a1.json", "a2.json"):
        out = tmp_path / name
        code = main([
            "audit", "--system", "quantum:2", "--bases", "fourier",
            "--trials", "5", "--seed", "23", "--out", str(out),
        ])
        assert code == EXIT_OK
        audit_bytes.append(out.read_bytes())
    assert audit_bytes[0] == audit_bytes[1]
    report(10, "kd-table and audit runs are byte-identical under fixed seeds")
