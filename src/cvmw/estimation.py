"""Gaussian quantum Fisher information of a two-mode standard-form family.

Every family the library differentiates is a two-mode Gaussian state in
standard form, Sigma = [[alpha I, gamma Z], [gamma Z, beta I]] with
Z = diag(1, -1), plus at most a displacement. It enters as its jet at the
operating point: the triple, its exact first derivative in the parameter and
the derivative of the displacement, which each family supplies in closed
form. The symplectic diagonaliser of a standard-form state is a two-mode
squeezer known in closed form, so the symplectic-basis QFI (D. Safranek,
J. Phys. A 52, 035304 (2019), arXiv:1801.00945) is a few elementwise lines
over arrays, and so is the quadratic part of the symmetric logarithmic
derivative (SLD), whose terms H sums. The general N-mode Monras solve
(A. Monras, arXiv:1303.3682), with the full SLD and the optimal observable,
is the oracle in tests/oracles/monras.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (PHYSICALITY_TOL, PhysicalityError, all_true, any_true, pow2_scale,
                   sqrt, to_float, where)

PURE_TOL = 1e-7
DSIGMA_FLOOR = 1e-12
SCALE_FROM = 2.0 ** 500


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


def _symplectic_jet(family):
    """The family in the symplectic basis of its state, elementwise: the
    two-mode squeezer with cosh 2r = (alpha + beta) / t, sinh 2r = 2 gamma / t,
    t = sqrt((alpha + beta)^2 - 4 gamma^2), takes Sigma to diag(nu_1 I, nu_2 I)
    and dSigma to blocks d_i I and e Z. Returns s, cosh^2 r, sinh^2 r,
    cosh r sinh r, s (d_1, d_2, e), s^2 (w_1, w_2, w_12) = s^2 (nu_1^2 - 1,
    nu_2^2 - 1, nu_1 nu_2 + 1), inf where dSigma = 0, and dd^T Sigma^-1 dd. The
    power of two s is 1 below alpha + beta = 2^500 and takes it into [2^499,
    2^500) above: no product overflows, no small nu_2^2 - 1 underflows. Raises
    PhysicalityError, and RegularizationError at the pure-state edge."""
    a, b, g = family.alpha, family.beta, family.gamma
    da, db, dg = family.dalpha, family.dbeta, family.dgamma
    live = (abs(da) >= DSIGMA_FLOOR) | (abs(db) >= DSIGMA_FLOOR) | (abs(dg) >= DSIGMA_FLOOR)
    s, tr = 1.0, a + b
    if not all_true(tr < SCALE_FROM):
        s = where(tr < SCALE_FROM, 1.0, SCALE_FROM * pow2_scale(tr))
        a, b, g, da, db, dg = s * a, s * b, s * g, s * da, s * db, s * dg
    # alpha beta - gamma^2, exact to rounding for alpha = beta near |gamma| = alpha
    root_ab = sqrt(a * b)
    det = (root_ab - g) * (root_ab + g)
    if not all_true((a > 0.0) & (det > 0.0)):
        raise PhysicalityError("covariance matrix is not positive definite")
    tr = a + b
    t = sqrt((tr - 2.0 * g) * (tr + 2.0 * g))
    # nu_1 nu_2 = det: the smaller eigenvalue without the cancellation of
    # (t - |alpha - beta|) / 2
    hi = 0.5 * (t + abs(a - b))
    lo = det / hi
    if any_true(lo < s * (1.0 - PHYSICALITY_TOL)):
        raise PhysicalityError("state violates the uncertainty relation "
                               "(min nu = %.12g)" % np.min(lo / s))
    if any_true(live & (lo < s * (1.0 + PURE_TOL))):
        raise RegularizationError(
            "regularization required: QFI singular for (nearly) pure states")
    nu1, nu2 = where(a >= b, hi, lo), where(a >= b, lo, hi)
    # sinh^2 r is (tr - t) / (2 t), written without the cancellation
    ch2, sh2, chsh = (tr + t) / (2.0 * t), 2.0 * g * g / (t * (tr + t)), g / t
    d1 = ch2 * da - 2.0 * chsh * dg + sh2 * db
    d2 = sh2 * da - 2.0 * chsh * dg + ch2 * db
    e = (ch2 + sh2) * dg - chsh * (da + db)
    # a row that is not live, where nu may be 1, divides by inf
    w1 = where(live, (nu1 - s) * (nu1 + s), math.inf)
    w2 = where(live, (nu2 - s) * (nu2 + s), math.inf)
    x1, p1, x2, p2 = family.dd
    h_d = s * (b * (x1 * x1 + p1 * p1) + a * (x2 * x2 + p2 * p2)
               - 2.0 * g * (x1 * x2 - p1 * p2)) / det
    return s, ch2, sh2, chsh, d1, d2, e, w1, w2, where(live, det + s * s, math.inf), h_d


def gaussian_qfi(family):
    """QFI of the family at lambda0, elementwise (a Python float for scalar
    fields): H = d_1^2 / w_1 + d_2^2 / w_2 + 2 e^2 / w_12 + 2 dd^T Sigma^-1 dd
    in the terms of _symplectic_jet, whose errors it raises."""
    _, _, _, _, d1, d2, e, w1, w2, w12, h_d = _symplectic_jet(family)
    return to_float(d1 * d1 / w1 + d2 * d2 / w2 + 2.0 * e * e / w12 + 2.0 * h_d)


def sld_standard_form(family):
    """(p_1, p_2, q, H): the quadratic part A = [[p_1 I, q Z], [q Z, p_2 I]] of
    the symmetric logarithmic derivative at lambda0 and the QFI, elementwise.
    In the terms of _symplectic_jet, whose errors it raises, A has blocks
    phi_i I, phi_i = d_i / w_i, and psi Z, psi = e / w_12, the terms of
    H = d_1 phi_1 + d_2 phi_2 + 2 e psi + 2 dd^T Sigma^-1 dd; the map that takes
    (dalpha, dbeta, dgamma) to (d_1, d_2, e) takes (phi_1, phi_2, psi) to A."""
    s, ch2, sh2, chsh, d1, d2, e, w1, w2, w12, h_d = _symplectic_jet(family)
    phi1, phi2, psi = d1 / w1, d2 / w2, e / w12  # each the true one over s
    p1 = s * (ch2 * phi1 + sh2 * phi2 - 2.0 * chsh * psi)
    p2 = s * (sh2 * phi1 + ch2 * phi2 - 2.0 * chsh * psi)
    q = s * ((ch2 + sh2) * psi - chsh * (phi1 + phi2))
    return p1, p2, q, d1 * phi1 + d2 * phi2 + 2.0 * e * psi + 2.0 * h_d
