"""Mutants of a representation that a gated audit verdict must catch.

Each mutant corrupts a map of the qutrit Fourier Kirkwood-Dirac slot, or
both, and must flip ``semifunctorial`` and ``empirically_adequate``;
``VERDICTS`` pins every boolean verdict of every row.  A verdict that no
mutant flips gets a strict ``xfail`` naming the ROADMAP item expected to make
it falsifiable.
"""

import functools

import numpy as np
import pytest

from quasirep.gpt import make_system
from quasirep.kirkwood_dirac import kd_frame_pair, preset_bases
from quasirep.structure import Representation, SystemSlot, audit_representation

MUTANTS = {
    "recon-scaled": lambda rep, recon, rng: (rep, 1.01 * recon),
    "recon-noise": lambda rep, recon, rng: (
        rep, recon + 1e-3 * rng.standard_normal(recon.shape)
    ),
    "rep-conjugated": lambda rep, recon, rng: (rep.conj(), recon),
    "rep-rows-reversed": lambda rep, recon, rng: (rep[::-1], recon),
    "recon-is-rep-transposed": lambda rep, recon, rng: (rep, rep.T),
    "rep-last-row-zeroed": lambda rep, recon, rng: (
        np.concatenate([rep[:-1], np.zeros_like(rep[-1:])]), recon
    ),
    "rep-and-recon-gaussian": lambda rep, recon, rng: tuple(
        rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape) for m in (rep, recon)
    ),
}


VERDICT_FIELDS = (
    "semifunctorial", "empirically_adequate", "linear", "discard_preserving", "functorial",
    "dim_check",
)
T, F = True, False
# one row per mutant, None for the unmutated slot, in VERDICT_FIELDS order
VERDICTS = {
    None: (T, T, T, T, T, T),
    "recon-scaled": (F, F, T, T, F, T),
    "recon-noise": (F, F, T, T, F, T),
    "rep-conjugated": (F, F, T, T, F, T),
    "rep-rows-reversed": (F, F, T, T, F, T),
    "recon-is-rep-transposed": (F, F, T, T, F, T),
    "rep-last-row-zeroed": (F, F, T, F, F, F),
    "rep-and-recon-gaussian": (F, F, T, F, F, T),
}


def _qutrit_fourier(mutant=None):
    system = make_system("quantum", 3)
    slot = SystemSlot.from_pair(kd_frame_pair(preset_bases("fourier", 3)))
    rep, recon = slot.rep, slot.recon
    if mutant is not None:
        rep, recon = MUTANTS[mutant](rep, recon, np.random.default_rng(0))
    slots = {system.label: SystemSlot(slot.labels, rep, recon)}
    return Representation(slots, validate=False), system


@functools.cache
def _report(mutant=None):
    """The audit of a row: 20 trials at seed 3."""
    rep, system = _qutrit_fourier(mutant)
    return audit_representation(rep, [system], trials=20, seed=3)


def test_unmutated_slot_passes():
    assert _report().passes()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_semifunctoriality(mutant):
    report = _report(mutant)
    assert not report.semifunctorial and not report.passes()
    assert not report.empirically_adequate


@pytest.mark.parametrize("mutant", VERDICTS, ids=lambda mutant: mutant or "unmutated")
def test_every_verdict_of_the_table(mutant):
    report = _report(mutant)
    assert tuple(getattr(report, field) for field in VERDICT_FIELDS) == VERDICTS[mutant]


def test_rank_deficient_rep_has_no_factorization():
    # chi has rank 8 < 9, so there is no phi and the factorization check reads inf
    report = _report("rep-last-row-zeroed")
    assert not report.dim_check and report.decomposition_residual == float("inf")
    assert not report.passes()


def test_random_slot_still_factors():
    # both sides of the factorization reduce to rep @ S @ recon for any slot
    # whose chi is injective, so random maps factor (ROADMAP item 1)
    report = _report("rep-and-recon-gaussian")
    assert not report.semifunctorial and not report.empirically_adequate
    assert report.dim_check and np.isfinite(report.decomposition_residual)


def test_one_trial_composes_two_independent_channels():
    # with one system the only triple is (a, a, a), whose T1 and T2 are
    # still two independent draws
    rep, system = _qutrit_fourier("recon-scaled")
    assert not audit_representation(rep, [system], trials=1, seed=3).semifunctorial


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a slot representation is linear whatever its matrices, so no "
                   "slot mutant flips `linear` (ROADMAP item 1)")
def test_some_mutant_flips_linearity():
    for mutant in MUTANTS:
        if not _report(mutant).linear:
            return
    raise AssertionError("no mutant flips `linear`")
