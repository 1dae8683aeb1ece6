"""Tests for rank estimation, flat truncation and atom extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsipp.errors import DegenerateMassError, NumericalTroubleError
from fsipp.extract import (RankCertificate, extract_atoms,
                           flat_truncation_check, numeric_rank,
                           point_from_functional)
from fsipp.moment import MomentFunctional
from fsipp.poly import Polynomial

from conftest import from_atoms


def test_numeric_rank_thresholds_relative_to_top_singular_value():
    mat = np.diag([1.0, 1e-3, 1e-12])
    rank, sv = numeric_rank(mat, rel_tol=1e-8)
    assert rank == 2
    assert sv[0] == pytest.approx(1.0)
    assert numeric_rank(np.zeros((3, 3)))[0] == 0
    assert numeric_rank(np.zeros((0, 0)))[0] == 0


def test_point_from_functional_normalizes_and_guards_mass():
    L = from_atoms(2, 1, [((0.5, -1.0), 4.0)])
    np.testing.assert_allclose(point_from_functional(L), [0.5, -1.0])
    zero = MomentFunctional(2, 1, np.zeros(6))
    with pytest.raises(DegenerateMassError):
        point_from_functional(zero)


def test_flat_truncation_passes_at_first_stable_order():
    atoms = [((0.3, -0.4), 1.0), ((-0.8, 0.2), 0.5)]
    L = from_atoms(2, 3, atoms)
    cert = flat_truncation_check(L, k=3, k0=1, d_half=1)
    assert cert is not None and cert.passed
    assert cert.rank_low == cert.rank_high == 2
    assert cert.k_prime == 2  # rank M_1 = rank M_2 = 2 already


def test_flat_truncation_fails_when_rank_keeps_growing():
    rng = np.random.default_rng(3)
    atoms = [(p, 1.0) for p in rng.uniform(-1, 1, size=(5, 2))]
    L = from_atoms(2, 2, atoms)
    # ranks are 1, 3, 5 at orders 0, 1, 2: no plateau inside the window
    assert flat_truncation_check(L, k=2, k0=1, d_half=1) is None


def test_extract_atoms_requires_a_passing_certificate():
    L = from_atoms(2, 2, [((0.0, 0.0), 1.0)])
    cert = RankCertificate(k_prime=2, rank_low=1, rank_high=2,
                           singular_values_low=np.ones(1),
                           singular_values_high=np.ones(2), passed=False)
    with pytest.raises(ValueError):
        extract_atoms(L, cert)


def test_extract_single_dirac_is_exact():
    point = (0.123456789, -0.987654321)
    L = from_atoms(2, 2, [(point, 1.0)])
    cert = flat_truncation_check(L, k=2, k0=1, d_half=1)
    atoms = extract_atoms(L, cert)
    assert len(atoms) == 1
    np.testing.assert_allclose(atoms[0][0], point, atol=1e-10)
    assert atoms[0][1] == pytest.approx(1.0, abs=1e-10)


def test_extract_recovers_distinct_weights():
    planted = [((0.6, 0.1), 0.25), ((-0.5, -0.7), 1.75)]
    L = from_atoms(2, 3, planted)
    atoms = extract_atoms(L, flat_truncation_check(L, k=3, k0=1, d_half=1))
    got = sorted(atoms, key=lambda a: a[1])
    for (pt, w), (ept, ew) in zip(got, planted):
        np.testing.assert_allclose(pt, ept, atol=1e-8)
        assert w == pytest.approx(ew, abs=1e-8)


def test_extract_empty_functional_when_rank_zero():
    L = MomentFunctional(1, 1, np.zeros(3))
    cert = RankCertificate(k_prime=1, rank_low=0, rank_high=0,
                           singular_values_low=np.zeros(0),
                           singular_values_high=np.zeros(0), passed=True)
    assert extract_atoms(L, cert) == []


def test_extract_rejects_an_atom_off_the_localized_set():
    # The quarter circle {y >= 0, |y| = 1}.  A tiny-weight atom inside the
    # disk fits the moments as well as any, so only the localizers see that
    # the functional is not a measure on the arc.
    circle = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    gens = (Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0}),
            circle, circle.scale(-1.0))
    on_arc = (np.cos(0.7), np.sin(0.7))
    L = from_atoms(2, 3, [(on_arc, 1.0), ((0.8235, 0.298), 1e-4)])
    cert = flat_truncation_check(L, k=3, k0=1, d_half=1)
    assert cert is not None and cert.rank_high == 2
    assert len(extract_atoms(L, cert)) == 2  # a valid 2-atomic measure on R^2
    with pytest.raises(NumericalTroubleError, match="localizer"):
        extract_atoms(L, cert, gens=gens)
    L = from_atoms(2, 3, [(on_arc, 1.0), ((0.6, 0.8), 1e-4)])
    cert = flat_truncation_check(L, k=3, k0=1, d_half=1)
    assert len(extract_atoms(L, cert, gens=gens)) == 2


def test_extract_recovers_planted_atoms_in_ten_variables():
    # beyond eight variables the extraction weights go on as frac(i phi);
    # test_extract_reference.py checks the first eight against numpy's draws
    rng = np.random.default_rng(10)
    planted = [(rng.uniform(-1, 1, size=10), w) for w in (0.5, 1.0, 1.5)]
    L = from_atoms(10, 2, planted)
    cert = flat_truncation_check(L, k=2, k0=1, d_half=1)
    assert cert is not None and cert.rank_high == 3
    atoms = sorted(extract_atoms(L, cert), key=lambda a: a[1])
    assert len(atoms) == 3
    for (pt, w), (ept, ew) in zip(atoms, planted):
        np.testing.assert_allclose(pt, ept, rtol=0, atol=1e-8)
        assert abs(w - ew) <= 1e-8


@settings(deadline=None, max_examples=12)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_random_atomic_measures_round_trip(natoms, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(natoms, 2))
    if natoms > 1 and np.min(
            [np.linalg.norm(pts[i] - pts[j])
             for i in range(natoms) for j in range(i)]) < 1e-2:
        return  # skip near-coincident draws: rank drops below natoms
    wts = rng.uniform(0.2, 1.0, size=natoms)
    L = from_atoms(2, 3, list(zip(pts, wts)))
    cert = flat_truncation_check(L, k=3, k0=1, d_half=1)
    assert cert is not None and cert.rank_high == natoms
    atoms = extract_atoms(L, cert)
    recon = from_atoms(2, 3, atoms)
    assert np.max(np.abs(recon.values - L.values)) <= 1e-7
