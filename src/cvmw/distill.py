"""Photon subtraction and entanglement swapping for two-mode Gaussian states.

Two photon-subtraction variants are implemented: the probabilistic scheme
(high-transmissivity beam splitters with photocounters on the reflected
paths) and the heuristic one (direct application of annihilation
operators). Both come with the correction machinery needed to express the
resulting non-Gaussian teleportation resources through effective Gaussian
covariance matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SIGMA_Z, all_true, any_true, math_map, omega, pow2_scale
from .entanglement import BipartiteCM


_E0_NOT_POSITIVE = "normalization E_0 <= 0 (cannot subtract from this state)"


def _hyp2f1_numerator(k, z):
    """P_k(z) in 2F1(k + 1, k + 1; 1; z) = P_k(z) / (1 - z)^(2k + 1), k = 0, 1, 2."""
    return (1.0, 1.0 + z, 1.0 + 4.0 * z + z * z)[k]


def hyp2f1_k(k, z):
    """Gauss hypergeometric 2F1(k + 1, k + 1; 1; z) for k in {0, 1, 2}, |z| < 1."""
    return _hyp2f1_numerator(k, z) / _power(1.0 - z, 2 * k + 1)


def _power(x, p):
    """x ** p through core.math_map, elementwise: numpy's power loop rounds
    by its SIMD target, math.pow alike on every CPU."""
    return math_map(lambda v: math.pow(v, p), x)


@dataclass
class PsTmsv:
    """Symmetric 2k-photon-subtracted TMSV: amplitudes and closed forms;
    lam and tau may be arrays, the closed forms are elementwise."""
    lam: float
    tau: float
    k: int

    def __post_init__(self):
        if not all_true((0.0 <= self.lam) & (self.lam < 1.0)):
            raise ValueError("lambda = tanh r must lie in [0, 1)")
        if not all_true((0.0 < self.tau) & (self.tau <= 1.0)):
            raise ValueError("transmissivity must lie in (0, 1]")
        if self.k not in (0, 1, 2):
            raise ValueError("only 0, 1 or 2 subtractions per mode")

    @property
    def lam_tau(self):
        return self.lam * self.tau

    def amplitude(self, n):
        """Unnormalized coefficient a_n of |n, n> in the subtracted state."""
        from math import comb
        return (np.sqrt(1.0 - self.lam ** 2) * _power(self.lam, n + self.k)
                * comb(n + self.k, self.k) * _power(1.0 - self.tau, self.k)
                * _power(self.tau, n))

    def success_probability(self):
        """P_2k = sum_n |a_n|^2 in closed form."""
        lt = self.lam_tau
        return ((1.0 - self.lam ** 2) * _power(self.lam - lt, 2 * self.k)
                * hyp2f1_k(self.k, lt ** 2))

    def negativity(self):
        """((1 - lam_tau)^{-2(k+1)} / 2F1(k+1, k+1; 1; lam_tau^2) - 1) / 2.

        With 1 - lam_tau^2 = (1 - lam_tau)(1 + lam_tau) the powers of
        1 - lam_tau cancel in closed form, leaving one factor as lam_tau -> 1.
        """
        lt = self.lam_tau
        return 0.5 * (_power(1.0 + lt, 2 * self.k + 1)
                      / ((1.0 - lt) * _hyp2f1_numerator(self.k, lt ** 2)) - 1.0)


def tmsv_negativity(lam):
    """lam / (1 - lam) = (e^{2r} - 1) / 2 for lam = tanh r."""
    return lam / (1.0 - lam)


def heuristic_negativity(lam, k):
    """Negativity after applying a^k to each mode of a TMSV (no beam splitters)."""
    return PsTmsv(lam, 1.0, k).negativity() if k else tmsv_negativity(lam)


def _w_mat(x, m):
    """W_{X,M} = X^{-1} tr(X^{-1} M) - Omega M Omega^T / det X."""
    x_inv = np.linalg.inv(x)
    w = omega(1)
    return x_inv * np.trace(x_inv @ m) - w @ m @ w.T / np.linalg.det(x)


@dataclass
class PsOutcome:
    """A symmetric 2PS: Sigma-tilde (cm, unchecked), the success
    probability, and the heuristic subtraction of Sigma-tilde."""
    cm: BipartiteCM
    probability: float
    heuristic: "HeuristicPs"

    @property
    def g(self):
        """The non-Gaussian fidelity correction: h at Sigma-tilde, so 1 + g
        is heuristic_factor at the subtracted triple, and ps2_fidelity with
        tau is 1 + g over 1 + (alpha + beta - 2 gamma)/2 there."""
        return self.heuristic.h


def ps2_gaussian(cm, tau):
    """Symmetric two-photon subtraction (one photon counted per mode).

    Beam splitters of transmissivity tau mix each mode with a vacuum
    ancilla; both counters register one photon. Returns Sigma-tilde, the
    success probability and the heuristic subtraction at Sigma-tilde,
    which carries the characteristic function and fidelity.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("transmissivity must lie in (0, 1)")
    sa, sb, e = cm.sigma_a, cm.sigma_b, cm.eps
    for m in (sa, sb, e):
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise ValueError("submatrices must be symmetric")
    i2 = np.eye(2)
    w = omega(1)
    x_a = 0.5 * w @ ((1.0 - tau) * sa + (1.0 + tau) * i2) @ w.T
    x_b = 0.5 * w @ ((1.0 - tau) * sb + (1.0 + tau) * i2) @ w.T
    h = -0.5 * (1.0 - tau) * w @ e @ w.T
    if abs(np.linalg.det(x_a)) < 1e-14:
        raise ValueError("singular X_A block")
    x_a_inv = np.linalg.inv(x_a)
    y = x_b - h @ x_a_inv @ h
    if abs(np.linalg.det(y)) < 1e-14:
        raise ValueError("singular Y block")
    y_inv = np.linalg.inv(y)

    w_xa = _w_mat(x_a, i2)
    w_y = _w_mat(y, i2)
    m1 = 1.0 - 0.5 * np.trace(y_inv)
    m2 = 1.0 - 0.5 * np.trace(x_a_inv) - 0.5 * np.trace(y_inv @ h @ w_xa @ h)
    m3 = 0.5 * np.trace(w_y @ h @ w_xa @ h)

    root = 0.5 * np.sqrt(tau * (1.0 - tau))
    k1 = root * (e @ w.T + (sa - i2) @ w.T @ x_a_inv @ h)
    k2 = root * ((sb - i2) @ w.T + e @ w.T @ x_a_inv @ h)
    j1 = root * (sa - i2) @ w.T
    j2 = root * e @ w.T

    sigma_a = tau * sa + (1.0 - tau) * i2 - 2.0 * (
        j1 @ x_a_inv @ j1.T + k1 @ y_inv @ k1.T)
    sigma_b = tau * sb + (1.0 - tau) * i2 - 2.0 * (
        j2 @ x_a_inv @ j2.T + k2 @ y_inv @ k2.T)
    eps = tau * e - 2.0 * (j1 @ x_a_inv @ j2.T + k1 @ y_inv @ k2.T)
    prob = (m1 * m2 + m3) / np.sqrt(np.linalg.det(x_a) * np.linalg.det(y))

    # The photon-subtracted state equals the heuristic subtraction of the
    # Gaussian state with covariance Sigma-tilde (counting one photon on a
    # transmissivity-tau splitter inserts tau^{n/2} a per mode, and the
    # tau^{n/2} sandwich of the input Gaussian has exactly this covariance).
    # That identity supplies the characteristic function and the fidelity
    # correction g.
    cm_tilde = BipartiteCM(sigma_a, sigma_b, eps, check=False)
    return PsOutcome(cm_tilde, float(prob), ps2_heuristic(cm_tilde))


def _ps2_numerators(alpha, beta, gamma, tau):
    """The 2PS subtraction of a standard-form triple over one denominator,
    elementwise: (num_a, num_b, num_g, den, s) with 1 - alpha_tilde =
    num_a/den, 1 - beta_tilde = num_b/den, gamma_tilde = num_g s/den and
    den = 4 det X_A^{1/2} det Y^{1/2}, for ps2_standard_form and
    ps2_fidelity alike. The forms are homogeneous in (alpha, beta,
    gamma, 1), so the power of two s with s (alpha + beta) in [1/2, 1)
    scales the entries and stands for each 1, exactly: num_a, num_b and den
    have degree 2, num_g degree 1. Raises on tau outside (0, 1), and where
    X_A = x_a I or Y = y I is singular, |x_a| or |y| below 1e-7.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("transmissivity must lie in (0, 1)")
    s = pow2_scale(alpha + beta)
    alpha_s, beta_s, gamma_s = alpha * s, beta * s, gamma * s
    # the checks on 2 x_a, and on y = den / (4 x_a) as den / (2 x_a), both
    # against twice the tolerance, which is exact
    tol2 = 2e-7 * s
    x_a2 = (1.0 - tau) * alpha_s + (1.0 + tau) * s
    if any_true(abs(x_a2) < tol2):
        raise ValueError("singular X_A block")
    g2 = gamma_s * gamma_s
    a_minus, a_plus, b_minus, b_plus = s - alpha_s, s + alpha_s, s - beta_s, s + beta_s
    cross = a_minus * b_minus - g2
    den = (a_plus * b_plus - g2
           + (2.0 * tau) * (s * s - alpha_s * beta_s + g2) + cross * tau ** 2)
    if any_true(abs(den / x_a2) < tol2):
        raise ValueError("singular Y block")
    cross_tau = cross * tau
    return (2.0 * tau * (a_minus * b_plus + g2 + cross_tau),
            2.0 * tau * (a_plus * b_minus + g2 + cross_tau), 4.0 * tau * gamma_s, den, s)


def ps2_standard_form(alpha, beta, gamma, tau):
    """Closed forms of the 2PS submatrices and success probability:
    (alpha_tilde, beta_tilde, gamma_tilde, P), elementwise over arrays,
    from _ps2_numerators and with its errors; the one place that forms P.

    P = ((1 - tau)/tau)^2 E_0 / den with E_0 = q_a q_b + gamma_tilde^2
    (q_a = 1 - alpha_tilde, q_b = 1 - beta_tilde) the heuristic
    normalization at the subtracted triple, with no negative term on a
    physical Sigma-tilde; tests/test_distill.py derives it from the quartic
    over den^3. Every numerator of _ps2_numerators carries one factor of
    tau, so E_0 carries tau^2: each of q_a, q_b and gamma_tilde is
    multiplied by c = (1 - tau)/tau before any product, and neither c^2 nor
    tau^2 is formed. In the power of two s of _ps2_numerators the
    triple has degree 0, gamma_tilde carries one s and 1/den two.
    Independent of ps2_gaussian, which checks it in the tests.
    """
    num_a, num_b, num_g, den, s = _ps2_numerators(alpha, beta, gamma, tau)
    q_a, q_b, gamma_t = num_a / den, num_b / den, num_g / den * s
    c = (1 - tau) / tau
    prob = ((q_a * c) * (q_b * c) + (gamma_t * c) ** 2) / den * s * s
    return 1 - q_a, 1 - q_b, gamma_t, prob


def _ps2_kernel(a, b, g, d):
    """The 2PS formula at the homogeneous point (a, b, g, d) = d (1 - alpha,
    1 - beta, gamma, 1), elementwise: (N/E, T), K = ab - g^2, E = ab + g^2,
    T = 4d - a - b - 2g, N = K^2 + 2 (2g - a - b) K d + 8 E d^2. 1 + h is
    2 (N/E)/T^2 (tests/test_distill.py derives it with sympy from
    ps2_heuristic) and the fidelity 4 (N/E) d/T^3. N/E is the sum K (K/E)
    + 2 (2g - a - b) (K/E) d + 8 d^2: K/E is near 1, so each term is of the
    order of d, where N, of order d^2, underflows first. Every term is
    positive where K >= 0, as on every separable resource. Raises if E <= 0.

    Where a, b and g all fall below about 1e-154 d, as at a subtraction
    tau near 0, which makes them O(tau), E underflows: K/E, of degree 0 in
    (a, b, g), is then taken at their power of two scale, exact on every
    row, and K (K/E), below an ulp of 8 d^2, may underflow.
    """
    ab, g2 = a * b, g * g
    e = ab + g2
    if any_true(e <= 0.0):
        s = pow2_scale(abs(a) + abs(b) + abs(g))
        ab_s, g2_s = (a * s) * (b * s), (g * s) * (g * s)
        if any_true(ab_s + g2_s <= 0.0):
            raise ValueError(_E0_NOT_POSITIVE)
        ratio = (ab_s - g2_s) / (ab_s + g2_s)
    else:
        ratio = (ab - g2) / e
    k = ab - g2
    return (k * ratio + 2.0 * (2.0 * g - a - b) * ratio * d + 8.0 * d * d,
            4.0 * d - a - b - 2.0 * g)


def heuristic_factor(alpha, beta, gamma):
    """1 + h, the fidelity factor of ps2_heuristic for a standard-form input,
    elementwise: _ps2_kernel's 2 (N/E)/T^2 at the power of two d with
    d (alpha + beta) in [1/2, 1), which scales exactly and overflows no
    product. 1 + g of ps2_gaussian is this at ps2_standard_form's triple."""
    d = pow2_scale(alpha + beta)
    n_e, t = _ps2_kernel(d - alpha * d, d - beta * d, gamma * d, d)
    return 2.0 * n_e / (t * t)


def ps2_fidelity(alpha, beta, gamma, tau=None):
    """The 2PS teleportation fidelity of a standard-form triple, elementwise:
    1 + h over 1 + (alpha + beta - 2 gamma)/2, _ps2_kernel's 4 (N/E) d/T^3.
    Without tau (2ps-heur) the point is heuristic_factor's. With tau
    (2ps-prob) it is (num_a, num_b, num_g s, den) of _ps2_numerators, the
    subtracted triple of ps2_standard_form without forming it or P, scaled
    exactly by the power of two that brings den into [1/2, 1). d comes last,
    so a subnormal fidelity is rounded once. Raises the errors of
    ps2_standard_form and _ps2_kernel."""
    if tau is None:
        d = pow2_scale(alpha + beta)
        a, b, g = d - alpha * d, d - beta * d, gamma * d
    else:
        num_a, num_b, num_g, den, s = _ps2_numerators(alpha, beta, gamma, tau)
        scale = pow2_scale(den)
        a, b, g, d = num_a * scale, num_b * scale, num_g * (s * scale), den * scale
    n_e, t = _ps2_kernel(a, b, g, d)
    return 4.0 * n_e / (t * t * t) * d


@dataclass
class HeuristicPs:
    """Heuristic photon subtraction: characteristic-function machinery."""
    m_a: float
    m_b: float
    m_c: float
    big_a: np.ndarray
    big_b: np.ndarray
    big_c: np.ndarray
    big_ac: np.ndarray
    big_bc: np.ndarray
    e0: float
    h: float


def ps2_heuristic(cm):
    """Apply one annihilation operator per mode at the CF level.

    Returns the m/M matrices, the normalization, and the fidelity
    correction h assembled from the E-traces.
    """
    sa, sb, e = cm.sigma_a, cm.sigma_b, cm.eps
    for m in (sa, sb, e):
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise ValueError("submatrices must be symmetric")
    i2 = np.eye(2)
    w = omega(1)
    sz = SIGMA_Z
    m_a = 1.0 - 0.5 * np.trace(sa)
    m_b = 1.0 - 0.5 * np.trace(sb)
    m_c = 0.5 * np.trace(e.T @ e)
    e0 = m_a * m_b + m_c
    if e0 <= 0.0:
        raise ValueError(_E0_NOT_POSITIVE)
    big_a = 0.25 * (i2 - 2.0 * w @ sa @ w.T + w @ sa @ sa @ w.T)
    big_b = 0.25 * (i2 - 2.0 * w @ sb @ w.T + w @ sb @ sb @ w.T)
    big_c = 0.25 * w @ e.T @ e @ w.T
    big_ac = 0.5 * (w @ sa @ e @ w.T - w @ e @ w.T)
    big_bc = 0.5 * (w @ e @ sb @ w.T - w @ e @ w.T)

    gam = sz @ sa @ sz + sb - sz @ e - e.T @ sz
    wmat = i2 + 0.5 * gam
    w_inv = np.linalg.inv(wmat)
    e1 = (m_a * (big_b + sz @ big_c @ sz + sz @ big_bc)
          + m_b * (sz @ big_a @ sz + big_c + sz @ big_ac)
          + (2.0 * big_c + sz @ big_ac) @ w @ (i2 + sz @ e - sb) @ w.T)
    e2_a = big_c + sz @ big_ac + sz @ big_a @ sz
    e2_b = big_b + sz @ big_bc + sz @ big_c @ sz
    h = (np.trace(w @ w_inv @ w.T @ e1)
         - 2.0 / np.linalg.det(wmat) * np.trace(w @ e2_a @ w.T @ e2_b)
         + 3.0 * np.trace(w @ w_inv @ w.T @ e2_a)
         * np.trace(w @ w_inv @ w.T @ e2_b)) / e0
    return HeuristicPs(float(m_a), float(m_b), float(m_c),
                       big_a, big_b, big_c, big_ac, big_bc, float(e0), float(h))
