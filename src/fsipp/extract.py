"""Minimizer recovery from moment functionals.

Point map L(x)/L(1), the flat-truncation rank certificate, and atomic
measure extraction via the column-echelon / multiplication-matrix
procedure (shift operators on a rank factor of the moment matrix, joint
diagonalization through a fixed generic convex combination).

Every step indexes the functional's moment vector (``MomentFunctional``)
by the rank lookup of ``fsipp.moment``.  The atoms' Vandermonde matrix and
the reconstruction check are elementwise products and sums, never BLAS
products, so they round alike on every BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DegenerateMassError, NumericalTroubleError
from .moment import MomentFunctional, _monomials, moment_matrix

# extraction weights: default_rng(0).random(8), then frac(i phi) for i >= 8
_WEIGHTS = (0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
            0.016527635528529094, 0.8132702392002724, 0.9127555772777217,
            0.6066357757671799, 0.7294965609839984)


def numeric_rank(mat: np.ndarray, rel_tol: float = 1e-8):
    """(rank, singular values): count of s.v. above rel_tol * largest."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0, np.zeros(0)
    sv = np.linalg.svd(mat, compute_uv=False)
    top = sv[0] if sv.size else 0.0
    if top <= 0.0:
        return 0, sv
    return int(np.sum(sv > rel_tol * top)), sv


@dataclass
class RankCertificate:
    k_prime: int
    rank_low: int
    rank_high: int
    singular_values_low: np.ndarray
    singular_values_high: np.ndarray
    passed: bool
    k0: int = 1
    rel_tol: float = 1e-8


def point_from_functional(L: MomentFunctional) -> np.ndarray:
    """The normalized first-moment vector (L(x_1), ..., L(x_m)) / L(1);
    a mass of at most 1e-10 raises DegenerateMassError."""
    mass = L.mass()
    if mass <= 1e-10:
        raise DegenerateMassError(f"functional mass {mass} below 1e-10")
    return L.point()


def flat_truncation_check(L: MomentFunctional, k: int, k0: int, d_half: int,
                          rel_tol: float = 1e-8) -> RankCertificate | None:
    """Scan k' in [max(d_half, k0), k] for rank M_{k'-k0} = rank M_{k'}.

    Returns the first passing certificate, or None if no order passes.
    """
    lo = max(d_half, k0)
    last = None
    for k_prime in range(lo, k + 1):
        r_lo, sv_lo = numeric_rank(moment_matrix(L, k_prime - k0), rel_tol)
        r_hi, sv_hi = numeric_rank(moment_matrix(L, k_prime), rel_tol)
        cert = RankCertificate(k_prime, r_lo, r_hi, sv_lo, sv_hi,
                               passed=(r_lo == r_hi), k0=k0, rel_tol=rel_tol)
        if cert.passed:
            return cert
        last = cert
    return None


def _column_echelon(V: np.ndarray, piv_tol: float):
    """Gauss-Jordan on the r x N coordinate matrix, pivoting left to right.

    Returns (R, pivots): R[:, c] holds the coordinates of column c in the
    span of the pivot columns; R[:, pivots] is the identity.
    """
    R = np.array(V, dtype=float)
    r, N = R.shape
    pivots = []
    row = 0
    for col in range(N):
        if row >= r:
            break
        sub = R[row:, col]
        imax = int(np.argmax(np.abs(sub)))
        if abs(sub[imax]) <= piv_tol:
            continue
        if imax != 0:
            R[[row, row + imax]] = R[[row + imax, row]]
        R[row] /= R[row, col]
        for rr in range(r):
            if rr != row and R[rr, col] != 0.0:
                R[rr] -= R[rr, col] * R[row]
        pivots.append(col)
        row += 1
    return R, pivots


def extract_atoms(L: MomentFunctional, cert: RankCertificate, gens=()):
    """Recover the atoms of a flat functional as [(point, weight), ...].

    ``gens`` are the polynomials q >= 0 of the localizing matrices L was
    constrained by; every atom must satisfy them, to 1e-6 relative to the
    size of q's terms at the atom, and the atoms must give L's moments to
    1e-6 relative.

    Raises NumericalTrouble when the pivot structure, the joint
    eigendecomposition, the weights, the localizers, or the moment
    reconstruction do not behave like an r-atomic measure on that set.  An
    atom of nearly zero weight fits the moments wherever it lies, so only
    the localizers reject one that a rank test passed on noise.

    The atoms come from the eigenvectors of one combination of the
    multiplication matrices, whose eigenvalues generic weights keep apart.
    They are fixed (``_WEIGHTS``): numpy's random streams may change.
    """
    if not cert.passed:
        raise ValueError("rank certificate did not pass")
    m, k_prime, r = L.nvars, cert.k_prime, cert.rank_high
    if r == 0:
        return []
    _, exps, code, rank = _monomials(m, 2 * L.order)
    M = moment_matrix(L, k_prime)
    w, U = np.linalg.eigh(M)
    w = np.clip(w[-r:], 0.0, None)
    V = U[:, -r:] * np.sqrt(w)  # N x r rank factor, M ~ V V^T
    piv_tol = 1e-7 * max(1.0, float(np.max(np.abs(V))))
    R, pivots = _column_echelon(V.T, piv_tol)
    if len(pivots) < r:
        raise NumericalTroubleError(
            f"rank factor collapsed: {len(pivots)} pivots for rank {r}")
    piv = exps[pivots]
    if piv.sum(axis=1).max() > k_prime - 1:
        raise NumericalTroubleError("pivot monomials exceed degree k'-1")
    # column j of N_i is the column of x_i times pivot monomial j; take
    # keeps N_i C-ordered (R[:, idx] is not), so q @ N_i @ q rounds alike
    shifted = rank(code(piv)[:, None] + code(np.eye(m, dtype=np.intp)))
    mult = [np.take(R, shifted[:, i], axis=1) for i in range(m)]

    coeffs = np.array([*_WEIGHTS, *(i * 0.6180339887498949 % 1.0
                                    for i in range(8, m))][:m])
    coeffs /= coeffs.sum()
    N = sum(c * Ni for c, Ni in zip(coeffs, mult))
    # an orthonormal Schur basis of N: N V = V diag(lam) and V = Q R give
    # N Q = Q (R diag(lam) R^-1), upper triangular
    lam, V = np.linalg.eig(N)
    if np.max(np.abs(lam.imag)) > 1e-6 * (1.0 + np.max(np.abs(lam))):
        raise NumericalTroubleError(
            "joint eigenproblem has complex pairs; operators do not commute")
    Q = np.linalg.qr(V.real)[0]
    points = np.array([[float(q @ Ni @ q) for Ni in mult] for q in Q.T])

    # the Vandermonde matrix of the points on N^m_{2k'}, a prefix of L's
    A = np.prod(points ** exps[:comb(m + 2 * k_prime, m), None], axis=2)
    weights, *_ = np.linalg.lstsq(A, L.values[:len(A)], rcond=None)
    if np.min(weights) < -1e-7:
        raise NumericalTroubleError(f"negative atomic weight {np.min(weights)}")
    for pt in points:
        big = max(1.0, float(np.max(np.abs(pt))))
        for q in gens:
            size = sum(abs(c) * big ** sum(mono) for mono, c in q.terms.items())
            if q(pt) < -1e-6 * max(1.0, size):
                raise NumericalTroubleError(
                    f"atom {pt} violates a localizer by {-q(pt):g}")

    # on N^m_{2(k'-k0)}, summed atom by atom elementwise (no BLAS product)
    check = L.values[:comb(m + 2 * (k_prime - cert.k0), m)]
    scale = max(1.0, float(np.max(np.abs(check))))
    recon = sum(wj * col for wj, col in zip(weights, A[:len(check)].T))
    worst = float(np.max(np.abs(recon - check)))
    if worst > 1e-6 * scale:
        raise NumericalTroubleError(
            f"atomic reconstruction off by {worst:.17g} (tol 1e-06)")
    return [(pt, float(wj)) for pt, wj in zip(points, weights)]


def certify_and_extract(L: MomentFunctional, k: int, k0: int, d_half: int,
                        rel_tol: float, gens=()):
    """The rank test and atom extraction as one verdict: (certificate,
    atoms), or (None, None) when no order passes flat truncation or the
    passing certificate's atoms cannot be extracted.  A rank pass counts
    only with its atoms."""
    cert = flat_truncation_check(L, k=k, k0=k0, d_half=d_half, rel_tol=rel_tol)
    if cert is None:
        return None, None
    try:
        return cert, extract_atoms(L, cert, gens=gens)
    except NumericalTroubleError:
        return None, None
