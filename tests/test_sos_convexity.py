"""The s.o.s-convexity tests on their z-linear Gram bases, checked against
the full-basis SDPs they replace, and the walk's single family test."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fsipp import certify, cli, instances, moment, relax
from fsipp.certify import hessian_form
from fsipp.errors import NumericalTroubleError
from fsipp.indexset import Interval, QuadraticSet, Semialgebraic
from fsipp.moment import QModule, membership_margin
from fsipp.multiobj import epsilon_constraint_solve, scalarize
from fsipp.poly import BivariatePoly, Polynomial
from fsipp.relax import FsippProblem, classify_case

from conftest import full_basis_family_margin, zlinear_gram_margin

THRESHOLD = 1e-7  # the verdict threshold of every s.o.s-convexity test
DISC = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})


def _on(p, index_set):
    """A single-objective problem around the family p; only p and the
    index set matter to the family test."""
    f = Polynomial(p.n_x, {(2,) + (0,) * (p.n_x - 1): 1.0})
    return FsippProblem(f, Polynomial.constant(p.n_x, 1.0), (), p, index_set)


def _random_family(seed: int):
    """p(x, y) = |M(y)^T x|^2 + 0.1 |x|^2 + c (u.x)^4 with M affine in y,
    so its Hessian form 2|M(y)^T z|^2 + 0.2|z|^2 + 12c (u.x)^2 (u.z)^2
    depends on y and is a sum of z-linear squares.  Odd seeds subtract
    kappa |y|^2 |x|^2, which makes the Hessian at x = 0 indefinite at the
    boundary point y* = e_1, so p is not even convex there.  Seeds 0-9 use
    the interval, 10-19 the unit disc."""
    rng = np.random.default_rng(300 + seed)
    n = 2 if seed >= 10 else 1
    nv = 2 + n
    x = [Polynomial.variable(nv, i) for i in range(2)]
    y = [Polynomial.variable(nv, 2 + k) for k in range(n)]
    B = rng.normal(size=(2, 2))
    C = rng.normal(size=(n, 2, 2))
    M = [[Polynomial.constant(nv, B[i, j]) for j in range(2)] for i in range(2)]
    for k in range(n):
        M = [[M[i][j] + y[k].scale(C[k, i, j]) for j in range(2)]
             for i in range(2)]
    p = Polynomial.zero(nv)
    for j in range(2):
        col = x[0] * M[0][j] + x[1] * M[1][j]
        p = p + col * col
    xx = x[0] * x[0] + x[1] * x[1]
    u = rng.normal(size=2)
    lin = x[0].scale(u[0]) + x[1].scale(u[1])
    p = p + xx.scale(0.1) + lin.power(4).scale(rng.uniform(0.1, 1.0))
    if seed % 2:
        Mstar = B + C[0]
        kappa = np.linalg.eigvalsh(Mstar @ Mstar.T)[0] + 0.1 + rng.uniform(0.2, 1.0)
        yy = y[0] * y[0] + (y[1] * y[1] if n == 2 else Polynomial.zero(nv))
        p = p - (yy * xx).scale(kappa)
    index_set = QuadraticSet(DISC, (0.0, 0.0)) if n == 2 else Interval()
    return _on(BivariatePoly.from_joint(p, 2, n), index_set)


def _y_dependent(prob) -> bool:
    m, n = prob.m, prob.p.n_y
    return any(any(e[m:m + n]) for e in hessian_form(prob.p.to_joint(), m).terms)


def _restricted_margin(prob):
    """The family test on z-linear Gram bases, with the generators of the
    index set placed in (x, y, z)."""
    return certify.sos_convexity_margin(prob.p.to_joint(), prob.m,
                                        prob.index_set.as_generators())


def _family_sos_convex(prob) -> bool:
    """The verdict on the family p that fsipp's classification reads."""
    return certify.sos_convexity_check(prob.p.to_joint(), prob.m,
                                       prob.index_set.as_generators())


def _slice(prob):
    return prob.p.substitute_y(prob.index_set.representative_point())


@pytest.fixture(scope="module")
def families():
    """name -> problem whose family p the parity test checks."""
    out = {name: make()[0] for name, make in (
        ("case1", instances.case1_problem), ("case2", instances.case2_problem),
        ("case3", instances.case3_problem), ("case4", instances.case4_problem))}
    for label, make in (("I", instances.biobjective_case1),
                        ("II", instances.biobjective_case2),
                        ("III", instances.biobjective_case3),
                        ("IV", instances.biobjective_case4)):
        mprob = make()[0]
        for i in (1, 2):
            out[f"walk-{label}/{i}"] = mprob.base_problem(i)
    for seed in range(16):
        out[f"planted-{seed}"] = instances.planted_convex_quadratic(seed)[0]
    for seed in range(20):
        out[f"random-{seed}"] = _random_family(seed)
    return out


def _checked(prob):
    """(margin of the test fsipp runs, oracle margin, verdict of
    _family_sos_convex) for the family of prob, or None when p is affine
    in x.

    A y-dependent Hessian runs the restricted family SDP, against the
    full-basis quadratic module.  Otherwise one slice decides: its margin
    against the entry-by-entry Gram loop when the slice has degree >= 3
    (its full-basis SDP has a 56- or 70-dim Gram block), and against the
    full-basis family SDP when it is quadratic.  The verdict of
    _family_sos_convex is left out (None) where the family SDP refuses, since
    25 sampled slices then follow."""
    if hessian_form(prob.p.to_joint(), prob.m).is_zero():
        assert _family_sos_convex(prob)
        return None
    if _y_dependent(prob):
        new = _restricted_margin(prob)
        return (new, full_basis_family_margin(prob),
                None if new < -THRESHOLD else _family_sos_convex(prob))
    h = _slice(prob)
    oracle = zlinear_gram_margin(h) if h.degree >= 3 \
        else full_basis_family_margin(prob)
    return certify.sos_convexity_margin(h), oracle, _family_sos_convex(prob)


@pytest.fixture(scope="module")
def margins(families):
    """name -> :func:`_checked` of its family.  Families that share p and
    the index set share the computation, and so do y-independent ones with
    the same slice."""
    out, seen = {}, {}
    for name, prob in families.items():
        key = (prob.p.to_joint(), prob.index_set)
        if not _y_dependent(prob):
            key = _slice(prob)
        if key not in seen:
            seen[key] = _checked(prob)
        out[name] = seen[key]
    return out


def test_family_verdicts_match_the_full_basis_sdp(families, margins):
    verdicts = {}
    for name, triple in margins.items():
        if triple is None:  # p affine in x: nothing to test
            continue
        new, oracle, ran = triple
        assert (new >= -THRESHOLD) == (oracle >= -THRESHOLD), (name, new, oracle)
        if abs(oracle) > THRESHOLD:
            assert np.sign(new) == np.sign(oracle), (name, new, oracle)
        prob = families[name]
        if not _y_dependent(prob) and _slice(prob).degree >= 3:
            # the same SDP as the Gram loop it replaces
            assert abs(new - oracle) <= 1e-8, (name, new, oracle)
        # and fsipp's classification runs exactly this test
        assert ran in (None, oracle >= -THRESHOLD), name
        verdicts[name] = oracle >= -THRESHOLD
    # the random families are s.o.s-convex exactly for the even seeds, and
    # the packaged instances keep their verdicts
    assert [verdicts[f"random-{s}"] for s in range(20)] == [s % 2 == 0
                                                            for s in range(20)]
    expected = {"case1": True, "case2": True, "case3": False, "case4": False,
                "walk-II/1": True, "walk-II/2": True, "walk-III/1": False,
                "walk-III/2": False, "walk-IV/1": False, "walk-IV/2": False}
    assert {k: verdicts[k] for k in expected} == expected
    assert "walk-I/1" not in verdicts and "walk-I/2" not in verdicts
    assert all(verdicts[f"planted-{s}"] for s in range(16))


def test_family_sdps_have_their_z_bilinear_size(monkeypatch):
    sizes = []
    real = moment.sos_membership_blocks

    def recorded(builder, target, cone, nvars, margin=None):
        out = real(builder, target, cone, nvars, margin)
        sizes.append((len(builder.rows), [h.dim for h in out]))
        return out

    monkeypatch.setattr(moment, "sos_membership_blocks", recorded)
    for make in (instances.case1_problem, instances.case2_problem):
        assert _family_sos_convex(make()[0])
    # 126 rows (blocks 21 + 6) and 210 rows (28 + 7) on the full bases
    assert sizes == [(30, [8, 2]), (45, [10, 2])]


def test_slice_margins_match_the_gram_loop_they_replace():
    polys = [instances.convex_sextic_poly(),
             Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0}),
             Polynomial(2, {(4, 0): 1.0, (2, 2): -3.0, (0, 4): 1.0}),
             Polynomial(1, {(3,): 1.0})]
    for h in polys:
        assert abs(certify.sos_convexity_margin(h) - zlinear_gram_margin(h)) <= 1e-8
    # the sextic is convex but not s.o.s-convex: the full-basis SOS test
    # of its Hessian form refuses it too
    sextic = instances.convex_sextic_poly()
    form = hessian_form(sextic, 2)
    full, _ = membership_margin(form, QModule((), 3))
    assert full < -THRESHOLD and certify.sos_convexity_margin(sextic) < -THRESHOLD


def test_semialgebraic_disc_takes_the_same_path_as_the_quadratic_set(
        families, margins):
    semi = Semialgebraic((DISC,))
    for name in ("walk-II/1", "random-11"):
        new, oracle, _ = margins[name]
        assert _restricted_margin(_on(families[name].p, semi)) == new
        assert (new >= -THRESHOLD) == (oracle >= -THRESHOLD)
    assert _family_sos_convex(_on(families["walk-II/1"].p, semi)) is True


# ---------------------------------------------------- one family test per walk

def _count_family_sdps(monkeypatch):
    calls = []
    real = certify.membership_margin

    def counted(target, cone, *args, **kwargs):
        calls.append(cone)
        return real(target, cone, *args, **kwargs)

    monkeypatch.setattr(certify, "membership_margin", counted)
    return calls


def test_walk_decides_the_family_once(monkeypatch):
    mprob, u0, opts = instances.biobjective_case2()
    calls = _count_family_sdps(monkeypatch)
    report = epsilon_constraint_solve(mprob, u0, opts)
    assert len(report.traces) == 2
    assert len(calls) == 1
    anchors = [u0] + [u for _, u, _ in report.path[:-1]]
    for i, (trace, anchor) in enumerate(zip(report.traces, anchors), start=1):
        sub = scalarize(mprob, i, anchor)
        assert trace.tag is classify_case(sub).tag
    # classified on their own, the two stages make one family SDP each
    assert len(calls) == 3


@pytest.mark.parametrize("override", [None, relax.CaseTag.GENERAL])
def test_walk_running_the_floor_recipe_decides_the_family_once(monkeypatch,
                                                               override):
    # walk IV's General stages run the floor recipe, whose auxiliary
    # problems have its Case2 shape; an override leaves p undecided by
    # classification, so the set-up decides it and the walk carries it
    mprob, u0, opts = instances.biobjective_case4()
    opts = replace(opts, R=None, g_star=None, case_override=override)
    calls = _count_family_sdps(monkeypatch)
    try:
        epsilon_constraint_solve(mprob, u0, opts, {"bound": 4.0 / 3.0})
    except NumericalTroubleError:
        pass  # the outcome is not what this test is about
    assert len(calls) == 1


def test_solve_makes_one_family_sdp(monkeypatch, tmp_path):
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(cli.problem_to_doc(instances.case2_problem()[0])))
    calls = _count_family_sdps(monkeypatch)
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_solve_with_a_bound_hint_makes_one_family_sdp(monkeypatch, tmp_path):
    # case3 classifies as General; its affine g sends the floor recipe to
    # an auxiliary problem with the same p, whose verdict is passed along
    path = tmp_path / "case3.json"
    doc = cli.problem_to_doc(instances.case3_problem()[0],
                             hints={"bound": 4.0 / 3.0})
    path.write_text(json.dumps(doc))
    calls = _count_family_sdps(monkeypatch)
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


# ------------------------------------------------ what the family test catches

def test_compiler_errors_propagate_from_the_family_test(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("compiler bug")

    monkeypatch.setattr(moment, "sos_membership_blocks", broken)
    with pytest.raises(ValueError, match="compiler bug"):
        _family_sos_convex(instances.case2_problem()[0])


def test_numerical_trouble_is_a_refusal(monkeypatch):
    # No sampled slices stand in for a family SDP that fails: case2's
    # family is s.o.s-convex, but without a certificate it is not passed.
    def trouble(*args, **kwargs):
        raise NumericalTroubleError("stalled")

    monkeypatch.setattr(certify, "membership_margin", trouble)
    prob = instances.case2_problem()[0]
    assert _family_sos_convex(prob) is False
    assert classify_case(prob).tag is relax.CaseTag.GENERAL


def test_a_datum_whose_test_ends_without_a_margin_is_refused(monkeypatch,
                                                             tmp_path):
    # f + x1^4 needs an SDP; one that ends without a margin (NaN, as a
    # NumericalTrouble or IterLimit solve gives) refuses f, as it does p.
    def no_margin(*args, **kwargs):
        return float("nan"), SimpleNamespace(status="NumericalTrouble")

    monkeypatch.setattr(certify, "membership_margin", no_margin)
    base = instances.case1_problem()[0]
    prob = FsippProblem(base.f + Polynomial(2, {(4, 0): 1.0}), base.g,
                        base.psis, base.p, base.index_set)
    cls = classify_case(prob)
    assert cls.tag is relax.CaseTag.GENERAL
    assert dict(cls.findings)["f"] is False
    path = tmp_path / "case1_quartic.json"
    path.write_text(json.dumps(cli.problem_to_doc(prob)))
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 0
    listing = tmp_path / "classify.txt"
    assert cli.main(["classify", str(path), "--out", str(listing)]) == 0
    assert "f: not sos-convex" in listing.read_text().splitlines()


def test_family_failing_between_sample_points_is_general():
    # p = x1^2 ((y - c)^2 - 0.001) + x2^2 - 1 has x1-curvature -0.002 at
    # y = c, halfway between two of 25 evenly spaced points of [-1, 1];
    # every one of those slices is convex, the family is not.
    c = -1.0 + 1.0 / 24.0
    joint = Polynomial(3, {(2, 0, 2): 1.0, (2, 0, 1): -2.0 * c,
                           (2, 0, 0): c * c - 0.001, (0, 2, 0): 1.0,
                           (0, 0, 0): -1.0})
    prob = _on(BivariatePoly.from_joint(joint, 2, 1), Interval())
    slices = [prob.p.substitute_y(y) for y in np.linspace(-1.0, 1.0, 25)[:, None]]
    assert all(certify.sos_convexity_check(s) for s in slices)
    assert not certify.sos_convexity_check(prob.p.substitute_y(np.array([c])))
    assert _family_sos_convex(prob) is False
    assert classify_case(prob).tag is relax.CaseTag.GENERAL
