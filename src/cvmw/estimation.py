"""Gaussian quantum Fisher information of a two-mode standard-form family.

Every family the library differentiates is a two-mode Gaussian state in
standard form, Sigma = [[alpha I, gamma Z], [gamma Z, beta I]] with
Z = diag(1, -1), plus at most a displacement. It enters as its jet at the
operating point: the triple, its exact first derivative in the parameter and
the derivative of the displacement, which each family supplies in closed
form. The symplectic diagonaliser of a standard-form state is a two-mode
squeezer known in closed form, so the symplectic-basis QFI (D. Safranek,
J. Phys. A 52, 035304 (2019), arXiv:1801.00945) is a few elementwise lines
over arrays. The general N-mode Monras solve (A. Monras, arXiv:1303.3682),
with the symmetric logarithmic derivative and the optimal observable, is the
oracle in tests/oracles/monras.py.
"""

from dataclasses import dataclass

import numpy as np

from .core import PHYSICALITY_TOL, PhysicalityError, all_true, any_true

PURE_TOL = 1e-7
DSIGMA_FLOOR = 1e-12


class RegularizationError(RuntimeError):
    """QFI requested on (nearly) pure states where the formula is singular.

    Perturb the family with a small thermal occupation (n ~ 1e-6) if the
    value at the pure boundary is needed.
    """


@dataclass
class GaussianFamily:
    """One-parameter family of two-mode standard-form states at its operating
    point lambda0: the triple (alpha, beta, gamma), its lambda-derivative, and
    dd, the derivative of the displacement (x1, p1, x2, p2). The fields may be
    arrays that broadcast."""
    alpha: float
    beta: float
    gamma: float
    dalpha: float
    dbeta: float
    dgamma: float
    dd: tuple
    lambda0: float


def gaussian_qfi(family):
    """QFI of the family at lambda0, elementwise; a float for scalar fields.

    With s = sqrt((alpha + beta)^2 - 4 gamma^2), the symplectic eigenvalues
    are nu_1,2 = (s +/- (alpha - beta)) / 2, and the two-mode squeezer with
    cosh 2r = (alpha + beta) / s, sinh 2r = 2 gamma / s takes Sigma to
    diag(nu_1 I, nu_2 I). It takes dSigma to diagonal blocks d_1 I, d_2 I and
    off-diagonal blocks e Z, and
    H = d_1^2 / (nu_1^2 - 1) + d_2^2 / (nu_2^2 - 1) + 2 e^2 / (nu_1 nu_2 + 1)
        + 2 dd^T Sigma^-1 dd.
    Raises PhysicalityError for a state that violates the uncertainty
    relation, and RegularizationError near the pure-state boundary when the
    covariance matrix carries parameter dependence; a family whose
    covariance matrix is constant keeps only the displacement term.
    """
    a, b, g = family.alpha, family.beta, family.gamma
    # alpha beta - gamma^2, exact to rounding for alpha = beta near |gamma| = alpha
    root_ab = np.sqrt(a * b)
    det = (root_ab - g) * (root_ab + g)
    if not all_true((a > 0.0) & (det > 0.0)):
        raise PhysicalityError("covariance matrix is not positive definite")
    tr = a + b
    s = np.sqrt((tr - 2.0 * g) * (tr + 2.0 * g))
    # nu_1 nu_2 = det: the smaller eigenvalue without the cancellation of
    # (s - |alpha - beta|) / 2
    hi = 0.5 * (s + abs(a - b))
    lo = det / hi
    if any_true(lo < 1.0 - PHYSICALITY_TOL):
        raise PhysicalityError("state violates the uncertainty relation "
                               "(min nu = %.12g)" % np.min(lo))
    da, db, dg = family.dalpha, family.dbeta, family.dgamma
    live = (abs(da) >= DSIGMA_FLOOR) | (abs(db) >= DSIGMA_FLOOR) | (abs(dg) >= DSIGMA_FLOOR)
    if any_true(live & (lo < 1.0 + PURE_TOL)):
        raise RegularizationError(
            "regularization required: QFI singular for (nearly) pure states")
    nu1, nu2 = np.where(a >= b, (hi, lo), (lo, hi))
    # cosh^2 r, sinh^2 r and cosh r sinh r of the squeezer; sinh^2 r is
    # (tr - s) / (2 s), written without the cancellation
    ch2, sh2, chsh = (tr + s) / (2.0 * s), 2.0 * g * g / (s * (tr + s)), g / s
    d1 = ch2 * da - 2.0 * chsh * dg + sh2 * db
    d2 = sh2 * da - 2.0 * chsh * dg + ch2 * db
    e = (ch2 + sh2) * dg - chsh * (da + db)
    with np.errstate(divide="ignore", invalid="ignore"):  # pure points are not live
        h_sigma = (d1 * d1 / ((nu1 - 1.0) * (nu1 + 1.0))
                   + d2 * d2 / ((nu2 - 1.0) * (nu2 + 1.0)) + 2.0 * e * e / (det + 1.0))
    x1, p1, x2, p2 = family.dd
    h_d = (b * (x1 * x1 + p1 * p1) + a * (x2 * x2 + p2 * p2)
           - 2.0 * g * (x1 * x2 - p1 * p2)) / det
    h = np.where(live, h_sigma, 0.0) + 2.0 * h_d
    return h if np.ndim(h) else float(h)
