"""Acceptance suite: one test per headline capability, at fixed tolerances.

Each test ends with a single machine-greppable PASS line; pytest -v adds
its own one-line verdict per test.  Reference numbers are frozen oracles:
hand-computed optima, independently recomputed minima (grid or local
solver), or planted values.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from fsipp import instances
from fsipp.certify import nnls, sos_convexity_check
from fsipp.extract import extract_atoms, flat_truncation_check
from fsipp.moment import QModule
from fsipp.multiobj import efficiency_audit
from fsipp.poly import Polynomial
from fsipp.relax import CaseTag

from conftest import AUDIT_BOXES, from_atoms, is_member


def test_01_interval_route_exactness(case1_run):
    prob, _, trace = case1_run
    assert trace.tag is CaseTag.CASE1
    assert trace.stop_reason == "single"
    assert len(trace.rows) == 1 and trace.rows[0].dual_status == "Optimal"
    np.testing.assert_allclose(trace.candidate, [-0.5, -0.5], atol=1e-3)
    assert trace.r_dual == pytest.approx(0.25, abs=1e-3)
    print("[PASS] 01 interval route: point within 1e-3 of (-0.5,-0.5), "
          "value within 1e-3 of 0.25")


def test_02_ball_route_exactness(case2_run):
    prob, _, trace = case2_run
    assert trace.tag is CaseTag.CASE2
    np.testing.assert_allclose(trace.candidate, [0.5, 0.5], atol=1e-3)
    assert trace.r_dual == pytest.approx(0.5, abs=1e-3)
    u = trace.candidate
    assert prob.f(u) / prob.g(u) == pytest.approx(0.5, abs=1e-3)
    print("[PASS] 02 ball route: point within 1e-3 of (0.5,0.5), "
          "value within 1e-3 of 0.5")


def test_03_rank_certificate_interval_index(case3_run):
    _, _, trace = case3_run
    assert trace.tag is CaseTag.CASE3
    assert trace.rows[-1].k == 4
    cert = trace.certificate
    assert cert is not None and cert.passed
    assert cert.rank_low == 1 and cert.rank_high == 1
    assert trace.r_dual == pytest.approx(-0.8745, abs=2e-3)
    assert trace.atoms is not None and len(trace.atoms) == 1
    np.testing.assert_allclose(trace.atoms[0][0], [0.9044, 0.8460], atol=2e-3)
    print("[PASS] 03 rank-one certificate at order 4; value -0.8745 +/- 2e-3;"
          " atom within 2e-3 of (0.9044, 0.8460)")


def test_04_rank_certificate_ball_index(case4_run):
    _, _, trace = case4_run
    assert trace.tag is CaseTag.CASE4
    assert trace.rows[-1].k == 4
    cert = trace.certificate
    assert cert is not None and cert.passed
    assert cert.rank_low == 1 and cert.rank_high == 1
    assert trace.atoms is not None and len(trace.atoms) == 1
    np.testing.assert_allclose(trace.atoms[0][0], [0.7211, 0.6912], atol=2e-3)
    print("[PASS] 04 rank-one certificate at order 4; atom within 2e-3 of "
          "(0.7211, 0.6912)")


def test_05_general_route_stop_criterion(quarter_run, quarter_kkt):
    _, opts, trace = quarter_run
    assert trace.tag is CaseTag.GENERAL
    assert (opts.R, opts.g_star) == (2.0, 1.0)
    assert trace.rows[-1].k == 4
    assert trace.r_dual == pytest.approx(0.0274, abs=2e-3)
    np.testing.assert_allclose(trace.candidate, [0.7377, 0.6033], atol=2e-3)
    kkt = quarter_kkt
    assert kkt.tau == 1e-3
    assert kkt.p_star == pytest.approx(6.7654e-5, abs=5e-4)
    assert len(kkt.Lambda) >= 1
    for y in kkt.Lambda:
        np.testing.assert_allclose(y, [0.775, 0.6315], atol=2e-3)
    assert kkt.omega <= 1e-4
    assert kkt.feasible_within_tau and kkt.passes
    print("[PASS] 05 general route: value 0.0274 +/- 2e-3, candidate within "
          "2e-3 of (0.7377,0.6033), p* within 5e-4 of 6.7654e-5, active "
          "index within 2e-3 of (0.775,0.6315), omega <= 1e-4, certified")


def test_06_efficient_points_and_audits(bio_runs):
    reported = {
        "I": ([-0.2138, 0.8319], None),
        "II": ([0.6822, -0.1476], None),
        "III": ([0.000, -0.1623], "Uniqueness"),
        "IV": ([0.1231, 0.000], "Uniqueness"),
    }
    for name, (point, stop) in reported.items():
        mprob, _, _, report = bio_runs[name]
        np.testing.assert_allclose(report.final_point, point, atol=5e-3,
                                   err_msg=name)
        if stop is not None:
            assert report.stopped_by == stop, name
            assert len(report.path) == 1, name
        assert efficiency_audit(mprob, report.final_point, grid_size=200,
                                box=AUDIT_BOXES[name]), name
    print("[PASS] 06 efficient points within 5e-3 on all four walks; "
          "single-stage uniqueness stops on III and IV; 200x200 grid "
          "audits found no dominating feasible point")


def test_07_sandwich_and_monotonicity(sandwich_data, planted_runs):
    def check(rows, r_star, label):
        for row in rows:
            assert row.dual_status == "Optimal", (label, row.k, row.dual_status)
            assert row.primal_status == "Optimal", (label, row.k,
                                                    row.primal_status)
            # value-side vs certificate-side ordering, with 1e-7 slack for
            # finite-precision solves (10x the interior-point tolerance)
            assert row.r_primal <= row.r_dual + 1e-7, (label, row.k)
            assert row.r_dual <= r_star + 1e-3, (label, row.k, row.r_dual)
        for lo, hi in zip(rows, rows[1:]):
            assert hi.r_dual <= lo.r_dual + 1e-6, (label, hi.k)

    for label, (rows, r_star) in sandwich_data.items():
        check(rows, r_star, label)
    for seed, _, c0, _, rows in planted_runs:
        check(rows, c0, f"planted-{seed}")
    n_fix = len(sandwich_data)
    n_orders = sum(len(rows) for rows, _ in sandwich_data.values())
    n_orders += sum(len(rows) for *_, rows in planted_runs)
    print(f"[PASS] 07 sandwich and monotonicity on {n_fix} fixtures and "
          f"{len(planted_runs)} planted instances ({n_orders} solved orders)")


def test_08_atom_extraction_oracle():
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(12):
        natoms = 1 + trial % 4
        pts = rng.uniform(-1.0, 1.0, size=(natoms, 2))
        wts = rng.uniform(0.2, 1.5, size=natoms)
        L = from_atoms(2, 3, list(zip(pts, wts)))
        cert = flat_truncation_check(L, k=3, k0=1, d_half=1)
        assert cert is not None and cert.passed
        assert cert.rank_high == natoms
        atoms = extract_atoms(L, cert)
        assert len(atoms) == natoms
        got = np.array([p for p, _ in atoms])
        gw = np.array([w for _, w in atoms])
        for p, w in zip(pts, wts):
            dist = np.linalg.norm(got - p, axis=1)
            j = int(np.argmin(dist))
            assert dist[j] <= 1e-6 and abs(gw[j] - w) <= 1e-6
        # brute-force oracle: moments rebuilt from the recovered measure
        L2 = from_atoms(2, 3, atoms)
        assert np.max(np.abs(L2.values - L.values)) <= 1e-6
        checked += natoms
    print(f"[PASS] 08 extraction recovered {checked} planted atoms within "
          "1e-6, moment reconstruction within 1e-6")


def test_09_nnls_against_exhaustive_enumeration():
    def enum_min(A, b):
        best = float(np.linalg.norm(b))
        n = A.shape[1]
        for rsize in range(1, n + 1):
            for S in itertools.combinations(range(n), rsize):
                coef, *_ = np.linalg.lstsq(A[:, S], b, rcond=None)
                if coef.min() >= -1e-12:
                    resid = float(np.linalg.norm(A[:, list(S)] @ coef - b))
                    best = min(best, resid)
        return best

    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        b = A @ np.abs(rng.normal(size=n)) if trial % 3 == 0 \
            else rng.normal(size=m)
        x, resid = nnls(A, b)
        assert x.min() >= 0.0
        gap = abs(resid - enum_min(A, b))
        assert gap <= 1e-9
        worst = max(worst, gap)
    print(f"[PASS] 09 nonnegative least squares matched exhaustive "
          f"active-set enumeration on 100 instances (worst gap {worst:.2e})")


def test_10_hessian_form_discriminator():
    rng = np.random.default_rng(10)
    for _ in range(6):
        B = rng.normal(size=(2, 2))
        Q = B.T @ B + 0.1 * np.eye(2)
        quad = Polynomial(2, {(2, 0): Q[0, 0], (1, 1): 2 * Q[0, 1],
                              (0, 2): Q[1, 1], (1, 0): rng.normal(),
                              (0, 1): rng.normal(), (0, 0): rng.normal()})
        assert sos_convexity_check(quad) is True
    h1 = instances.convex_octic_form()
    h2 = instances.convex_sextic_poly()
    assert sos_convexity_check(h2) is False
    assert is_member(h1, QModule((), 4))
    assert is_member(h2, QModule((), 3))
    print("[PASS] 10 discriminator: convex quadratics accepted, the convex "
          "sextic rejected; both bundled polynomials admit plain "
          "sum-of-squares decompositions")
