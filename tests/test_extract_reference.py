"""Extraction against a reference that reads every moment on its own.

``ReferenceFunctional``, ``reference_moment_matrix`` and
``reference_extract_atoms`` keep the per-monomial extraction: the
functional is a dict keyed by monomial tuples, and each moment-matrix
entry, multiplication-matrix column, Vandermonde entry, right-hand moment
and reconstruction sum is looked up or computed one monomial at a time.
The package holds the functional as its moment vector and reads it by
index arithmetic (``fsipp.moment``, ``fsipp.extract``).  Both must give
the same candidate point, rank certificate (ranks and singular values),
atoms and weights, or fail with the same message, to the last bit, on
every functional the package extracts from while it solves Case1-Case4,
the quarter circle at k = 4 and 5, planted seeds 0-39 and the four
packaged walks, and while it certifies the quarter circle's minimizer.
The reference draws its combination weights from ``default_rng(0)``; on
planted functionals in one to eight variables the package's fixed weights
must give the same atoms.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest

from fsipp import extract, indexset, instances, relax
from fsipp.certify import certify_point
from fsipp.errors import DegenerateMassError, NumericalTroubleError
from fsipp.extract import (_column_echelon, extract_atoms,
                           flat_truncation_check, point_from_functional)
from fsipp.multiobj import epsilon_constraint_solve
from fsipp.poly import Polynomial, monomials_up_to
from fsipp.relax import solve_hierarchy

from conftest import from_atoms

# ---------------------------------------------------------------- reference


class ReferenceFunctional:
    """A functional as a dict monomial -> value over N^n_2k, built from the
    package's moment vector."""

    def __init__(self, L):
        self.nvars, self.order = L.nvars, L.order
        self.values = dict(zip(monomials_up_to(L.nvars, 2 * L.order),
                               L.values.tolist()))

    def value(self, mono: tuple) -> float:
        return self.values.get(tuple(mono), 0.0)

    def mass(self) -> float:
        return self.value((0,) * self.nvars)

    def point(self) -> np.ndarray:
        m = self.mass()
        out = np.zeros(self.nvars)
        for i in range(self.nvars):
            e = tuple(1 if j == i else 0 for j in range(self.nvars))
            out[i] = self.value(e) / m
        return out


def reference_moment_matrix(L: ReferenceFunctional, k: int) -> np.ndarray:
    if k > L.order:
        raise ValueError(f"moment matrix order {k} exceeds functional order {L.order}")
    basis = monomials_up_to(L.nvars, k)
    M = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            M[i, j] = L.value(tuple(x + y for x, y in zip(a, b)))
    return M


def reference_extract_atoms(L: ReferenceFunctional, cert, gens=()):
    """extract.extract_atoms, one monomial at a time."""
    if not cert.passed:
        raise ValueError("rank certificate did not pass")
    m = L.nvars
    k_prime = cert.k_prime
    r = cert.rank_high
    if r == 0:
        return []
    basis = monomials_up_to(m, k_prime)
    index = {mono: i for i, mono in enumerate(basis)}
    M = reference_moment_matrix(L, k_prime)
    w, U = np.linalg.eigh(M)
    w = np.clip(w[-r:], 0.0, None)
    V = U[:, -r:] * np.sqrt(w)
    piv_tol = 1e-7 * max(1.0, float(np.max(np.abs(V))))
    R, pivots = _column_echelon(V.T, piv_tol)
    if len(pivots) < r:
        raise NumericalTroubleError(
            f"rank factor collapsed: {len(pivots)} pivots for rank {r}")
    piv_monos = [basis[c] for c in pivots]
    if any(sum(mono) > k_prime - 1 for mono in piv_monos):
        raise NumericalTroubleError("pivot monomials exceed degree k'-1")

    mult = []
    for i in range(m):
        Ni = np.empty((r, r))
        for j, mono in enumerate(piv_monos):
            shifted = tuple(e + (1 if idx == i else 0)
                            for idx, e in enumerate(mono))
            Ni[:, j] = R[:, index[shifted]]
        mult.append(Ni)

    rng = np.random.default_rng(0)
    coeffs = rng.random(m)
    coeffs /= coeffs.sum()
    N = sum(c * Ni for c, Ni in zip(coeffs, mult))
    lam, V = np.linalg.eig(N)
    if np.max(np.abs(lam.imag)) > 1e-6 * (1.0 + np.max(np.abs(lam))):
        raise NumericalTroubleError(
            "joint eigenproblem has complex pairs; operators do not commute")
    Q = np.linalg.qr(V.real)[0]

    points = []
    for j in range(r):
        q = Q[:, j]
        points.append(np.array([float(q @ Ni @ q) for Ni in mult]))

    monos = monomials_up_to(m, 2 * k_prime)
    A = np.empty((len(monos), r))
    bvec = np.empty(len(monos))
    for a, mono in enumerate(monos):
        for j, pt in enumerate(points):
            A[a, j] = float(np.prod(pt ** np.array(mono)))
        bvec[a] = L.value(mono)
    weights, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    if np.min(weights) < -1e-7:
        raise NumericalTroubleError(f"negative atomic weight {np.min(weights)}")
    for pt in points:
        big = max(1.0, float(np.max(np.abs(pt))))
        for q in gens:
            size = sum(abs(c) * big ** sum(mono) for mono, c in q.terms.items())
            if q(pt) < -1e-6 * max(1.0, size):
                raise NumericalTroubleError(
                    f"atom {pt} violates a localizer by {-q(pt):g}")

    check_monos = monomials_up_to(m, 2 * (k_prime - cert.k0))
    scale = max(1.0, max(abs(L.value(mo)) for mo in check_monos))
    worst = 0.0
    for mono in check_monos:
        recon = sum(wj * float(np.prod(pt ** np.array(mono)))
                    for pt, wj in zip(points, weights))
        worst = max(worst, abs(recon - L.value(mono)))
    if worst > 1e-6 * scale:
        raise NumericalTroubleError(
            f"atomic reconstruction off by {worst:.17g} (tol 1e-06)")
    return [(pt, float(wj)) for pt, wj in zip(points, weights)]


# ---------------------------------------------------------------- harness


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


def _recorded(monkeypatch, call) -> list:
    """The arguments of every ``certify_and_extract`` that ``call`` makes."""
    real = extract.certify_and_extract
    signature, seen = inspect.signature(real), []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments)
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        for module in (relax, indexset):
            mp.setattr(module, "certify_and_extract", spy)
        call()
    return seen


def _outcome(monkeypatch, args, reference: bool) -> list:
    """The candidate, the certificate and the atoms of one extraction, as
    bytes, or the message each step failed with."""
    L = ReferenceFunctional(args["L"]) if reference else args["L"]
    out = []
    try:
        out.append(_bits(point_from_functional(L)))
    except DegenerateMassError as exc:
        out.append(str(exc))
    with monkeypatch.context() as mp:
        if reference:
            mp.setattr(extract, "moment_matrix", reference_moment_matrix)
        cert = flat_truncation_check(L, args["k"], args["k0"], args["d_half"],
                                     args["rel_tol"])
    if cert is None:
        return out + [None]
    out.append((cert.k_prime, cert.rank_low, cert.rank_high, cert.passed,
                _bits(cert.singular_values_low), _bits(cert.singular_values_high)))
    try:
        atoms = (reference_extract_atoms if reference else extract_atoms)(
            L, cert, gens=args["gens"])
    except NumericalTroubleError as exc:
        return out + [str(exc)]
    return out + [[(_bits(pt), _bits(w)) for pt, w in atoms]]


def _same(monkeypatch, seen, label: str):
    """Assert that the package and the reference extract alike with each
    of ``seen``; (extractions, extractions that gave atoms)."""
    atomic = 0
    for i, args in enumerate(seen):
        got = _outcome(monkeypatch, args, reference=False)
        assert got == _outcome(monkeypatch, args, reference=True), f"{label} #{i}"
        atomic += isinstance(got[-1], list)
    return len(seen), atomic


# ---------------------------------------------------------------- cases


@pytest.mark.parametrize("make", [
    instances.case1_problem, instances.case2_problem, instances.case3_problem,
    instances.case4_problem], ids=["case1", "case2", "case3", "case4"])
def test_packaged_instances_extract_as_the_reference(monkeypatch, make):
    prob, opts = make()
    seen = _recorded(monkeypatch, lambda: solve_hierarchy(prob, opts))
    assert _same(monkeypatch, seen, make.__name__) == (1, 1)


@pytest.mark.parametrize("k", [4, 5])
def test_quarter_circle_extracts_as_the_reference(monkeypatch, k):
    prob, opts = instances.quarter_circle_problem()
    seen = _recorded(monkeypatch, lambda: solve_hierarchy(
        prob, replace(opts, k_min=k, k=k)))
    assert _same(monkeypatch, seen, f"quarter k={k}") == (1, 1)


def test_planted_seeds_extract_as_the_reference(monkeypatch):
    for seed in range(40):
        prob, opts, _, _ = instances.planted_convex_quadratic(seed)
        seen = _recorded(monkeypatch, lambda: solve_hierarchy(prob, opts))
        assert _same(monkeypatch, seen, f"planted {seed}") == (1, 1)


@pytest.mark.parametrize("make, counts", [
    (instances.biobjective_case1, (2, 0)), (instances.biobjective_case2, (2, 2)),
    (instances.biobjective_case3, (1, 1)), (instances.biobjective_case4, (1, 1))],
    ids=["I", "II", "III", "IV"])
def test_walk_stages_extract_as_the_reference(monkeypatch, make, counts):
    # walk I's two stages pass no rank test, so they extract nothing
    mprob, u0, opts = make()
    seen = _recorded(monkeypatch, lambda: epsilon_constraint_solve(mprob, u0, opts))
    assert _same(monkeypatch, seen, make.__name__) == counts


def test_certified_quarter_lower_level_extracts_as_the_reference(monkeypatch):
    prob, opts = instances.quarter_circle_problem()
    seen = _recorded(monkeypatch, lambda: certify_point(
        np.array([0.7377, 0.6033]), prob, tau=opts.tau, sdp_tol=opts.sdp_tol))
    assert _same(monkeypatch, seen, "certify quarter") == (1, 1)


def test_noisy_and_off_set_functionals_fail_as_the_reference(monkeypatch):
    # atomic measures with noisy moments, read at several rank thresholds,
    # fail the rank test or the reconstruction or give atoms; a tiny atom
    # off the quarter arc fails its localizers
    rng = np.random.default_rng(24)
    seen = []
    for trial in range(16):
        natoms = 1 + trial % 4
        L = from_atoms(2, 3, list(zip(rng.uniform(-1, 1, size=(natoms, 2)),
                                      rng.uniform(0.2, 1.5, size=natoms))))
        L.values[:] += (0.0, 1e-8, 1e-6, 1e-5)[trial // 4] * rng.normal(
            size=L.values.size)
        seen += [dict(L=L, k=3, k0=1, d_half=1, rel_tol=rel_tol, gens=())
                 for rel_tol in (1e-6, 1e-4, 1e-2)]
    circle = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    arc = (Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0}),
           circle, circle.scale(-1.0))
    L = from_atoms(2, 3, [((np.cos(0.7), np.sin(0.7)), 1.0), ((0.8235, 0.298), 1e-4)])
    seen.append(dict(L=L, k=3, k0=1, d_half=1, rel_tol=1e-8, gens=arc))
    outcomes = [_outcome(monkeypatch, args, reference=False)[-1] for args in seen]
    assert sum(isinstance(o, list) for o in outcomes) >= 20
    assert sum(o is None for o in outcomes) >= 5
    assert sum(isinstance(o, str) and "reconstruction" in o for o in outcomes) >= 10
    assert "localizer" in outcomes[-1]
    _same(monkeypatch, seen, "noisy")


def test_fixed_weights_extract_as_the_seeded_draws_in_up_to_eight_variables(
        monkeypatch):
    # the reference draws its weights from default_rng(0), the package
    # reads them from a constant: the same atoms to the bit for m <= 8
    rng = np.random.default_rng(8)
    seen = [dict(L=from_atoms(m, 3, list(zip(rng.uniform(-1, 1, size=(3, m)),
                                             (0.5, 1.0, 1.5)))),
                 k=3, k0=1, d_half=1, rel_tol=1e-8, gens=())
            for m in range(1, 9)]
    assert _same(monkeypatch, seen, "m <= 8") == (8, 8)


def test_value_refuses_a_monomial_outside_the_truncation():
    L = from_atoms(2, 2, [((0.5, -0.25), 2.0)])
    assert L.value((2, 2)) == 2.0 * 0.5 ** 2 * 0.25 ** 2
    for mono in [(3, 2), (0, 5), (1,), (1, 0, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="outside"):
            L.value(mono)
