"""Photon subtraction and entanglement swapping for two-mode Gaussian states.

Two photon-subtraction variants are implemented: the probabilistic scheme
(high-transmissivity beam splitters with photocounters on the reflected
paths) and the heuristic one (direct application of annihilation
operators). Both come with the correction machinery needed to express the
resulting non-Gaussian teleportation resources through effective Gaussian
covariance matrices.
"""

from dataclasses import dataclass

import numpy as np

from .core import SIGMA_Z, omega
from .entanglement import BipartiteCM


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric series for |z| < 1, term-ratio stopping at 1e-15."""
    if abs(z) >= 1.0:
        raise ValueError("series converges only for |z| < 1")
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a non-positive integer")
    term = 1.0
    total = 1.0
    for n in range(100000):
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1.0)
        total += term
        if abs(term) <= 1e-15 * abs(total):
            return total
    raise RuntimeError("hypergeometric series did not converge")


@dataclass
class PsTmsv:
    """Symmetric 2k-photon-subtracted TMSV: amplitudes and closed forms."""
    lam: float
    tau: float
    k: int

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lambda = tanh r must lie in [0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("transmissivity must lie in (0, 1]")
        if self.k not in (0, 1, 2):
            raise ValueError("only 0, 1 or 2 subtractions per mode")

    @property
    def lam_tau(self):
        return self.lam * self.tau

    def amplitude(self, n):
        """Unnormalized coefficient a_n of |n, n> in the subtracted state."""
        from math import comb
        return (np.sqrt(1.0 - self.lam ** 2) * self.lam ** (n + self.k)
                * comb(n + self.k, self.k) * (1.0 - self.tau) ** self.k
                * self.tau ** n)

    def success_probability(self):
        """P_2k = sum_n |a_n|^2 in closed form."""
        lt = self.lam_tau
        return ((1.0 - self.lam ** 2) * (self.lam - lt) ** (2 * self.k)
                * hyp2f1(self.k + 1, self.k + 1, 1.0, lt ** 2))

    def success_probability_series(self, rel_tol=1e-18):
        """Direct summation of |a_n|^2, stopping when terms fall below tol."""
        total = 0.0
        n = 0
        while True:
            t = self.amplitude(n) ** 2
            total += t
            if n > 2 and t < rel_tol * total:
                return total
            n += 1

    def negativity(self):
        """((1 - lam_tau)^{-2(k+1)} / 2F1(k+1, k+1; 1; lam_tau^2) - 1) / 2."""
        lt = self.lam_tau
        return 0.5 * ((1.0 - lt) ** (-2 * (self.k + 1))
                      / hyp2f1(self.k + 1, self.k + 1, 1.0, lt ** 2) - 1.0)


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
    """Submatrices, success probability and corrections of a symmetric 2PS.

    m1/m2/m3 enter the success probability; the P/Q/R matrices and cf_*
    scalars parameterize the quartic polynomial of the characteristic
    function; g is the non-Gaussian fidelity correction.
    """
    sigma_a: np.ndarray
    sigma_b: np.ndarray
    eps: np.ndarray
    probability: float
    m1: float
    m2: float
    m3: float
    p1: np.ndarray
    p2: np.ndarray
    p12: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    q12: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r12: np.ndarray
    cf_m1: float
    cf_m2: float
    cf_m3: float
    g: float

    @property
    def norm(self):
        """Normalization of the characteristic-function polynomial."""
        return self.cf_m1 * self.cf_m2 + self.cf_m3

    def cm(self, check=True):
        return BipartiteCM(self.sigma_a, self.sigma_b, self.eps, check=check)


def ps2_gaussian(cm, tau):
    """Symmetric two-photon subtraction (one photon counted per mode).

    Beam splitters of transmissivity tau mix each mode with a vacuum
    ancilla; both counters register one photon. Returns the modified
    submatrices, the success probability, and the correction machinery
    needed for characteristic functions and fidelities.
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
    # That identity supplies the characteristic-function polynomial and the
    # fidelity correction g.
    cm_tilde = BipartiteCM(sigma_a, sigma_b, eps, check=False)
    mach = ps2_heuristic(cm_tilde)
    p1, p2, p12 = mach.big_c, mach.big_b, mach.big_bc
    q1, q2, q12 = mach.big_a, mach.big_c, mach.big_ac
    r1 = -0.5 * (mach.big_ac @ w @ eps @ w.T
                 + (mach.big_ac @ w @ eps @ w.T).T)
    r2 = 2.0 * mach.big_c @ (i2 - w @ sigma_b @ w.T)
    r2 = 0.5 * (r2 + r2.T)
    r12 = (mach.big_ac @ (i2 - w @ sigma_b @ w.T)
           - 2.0 * w @ eps @ w.T @ mach.big_c)

    return PsOutcome(sigma_a, sigma_b, eps, float(prob),
                     float(m1), float(m2), float(m3),
                     p1, p2, p12, q1, q2, q12, r1, r2, r12,
                     float(mach.m_b), float(mach.m_a), float(mach.m_c),
                     float(mach.h))


def ps2_standard_form(alpha, beta, gamma, tau):
    """Direct closed forms of the 2PS submatrices and success probability.

    Independent of the general machinery in ps2_gaussian; serves as a
    cross-check path for standard-form inputs.
    """
    den = ((1 + alpha) * (1 + beta) - gamma ** 2
           + 2 * (1 - alpha * beta + gamma ** 2) * tau
           + ((1 - alpha) * (1 - beta) - gamma ** 2) * tau ** 2)
    alpha_t = 1 - 2 * tau * ((1 - alpha) * (1 + beta) + gamma ** 2
                             + ((1 - alpha) * (1 - beta) - gamma ** 2) * tau) / den
    beta_t = 1 - 2 * tau * ((1 + alpha) * (1 - beta) + gamma ** 2
                            + ((1 - alpha) * (1 - beta) - gamma ** 2) * tau) / den
    gamma_t = 4 * tau * gamma / den
    prob = 4 * (1 - tau) ** 2 * (
        (1 - alpha * beta + gamma ** 2
         + ((1 - alpha) * (1 - beta) - gamma ** 2) * tau) ** 2
        - (alpha - beta) ** 2 + 4 * gamma ** 2) / den ** 3
    return alpha_t, beta_t, gamma_t, prob


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
    e1: np.ndarray
    e2_a: np.ndarray
    e2_b: np.ndarray
    h: float

    @property
    def norm(self):
        return 1.0 / self.e0


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
        raise ValueError("normalization E_0 <= 0 (cannot subtract from this state)")
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
                       big_a, big_b, big_c, big_ac, big_bc,
                       float(e0), e1, e2_a, e2_b, float(h))


def swap(cm1, cm2):
    """Entanglement swapping: Bell-like homodyne detection on modes B and C.

    The retained modes A (of cm1) and D (of cm2) end up in the returned
    bipartite state, conditioned on the measurement outcomes.
    """
    sa, e_ab, sb = cm1.sigma_a, cm1.eps, cm1.sigma_b
    sc, e_cd, sd = cm2.sigma_a, cm2.eps, cm2.sigma_b
    w = omega(1)
    sz = SIGMA_Z
    core_mat = sb + sz @ sc @ sz
    det = np.linalg.det(core_mat)
    if abs(det) < 1e-14:
        raise ValueError("singular Sigma_B + sigma_z Sigma_C sigma_z")
    sigma_a = sa - e_ab @ w.T @ core_mat @ w @ e_ab.T / det
    sigma_d = sd - e_cd @ w.T @ (sc + sz @ sb @ sz) @ w @ e_cd.T / det
    eps = -e_ab @ w.T @ (sb @ sz + sz @ sc) @ w @ e_cd.T / det
    return BipartiteCM(sigma_a, sigma_d, eps)


def swap_symmetric(alpha, beta, gamma):
    """Closed-form swap of two identical standard-form links.

    Returns (alpha_tilde, gamma_tilde) with Sigma_A = Sigma_D =
    alpha_tilde I and eps = gamma_tilde sigma_z.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    shift = gamma ** 2 / (2.0 * beta)
    return alpha - shift, shift


def char_fn_2ps(cm, tau, alpha_pt, beta_pt, outcome=None):
    """Characteristic function of the probabilistically 2PS state.

    Gaussian envelope over Sigma-tilde times a quartic polynomial;
    alpha_pt and beta_pt are real phase-space points (x, p) for the two
    modes. A precomputed PsOutcome can be supplied to avoid recomputation.
    """
    out = ps2_gaussian(cm, tau) if outcome is None else outcome
    a = np.asarray(alpha_pt, dtype=float).reshape(2)
    b = np.asarray(beta_pt, dtype=float).reshape(2)
    w = omega(1)
    quad = (a @ w @ out.sigma_a @ w.T @ a + b @ w @ out.sigma_b @ w.T @ b
            + 2.0 * a @ w @ out.eps @ w.T @ b)
    envelope = np.exp(-0.25 * quad)
    poly = ((out.cf_m1 + a @ out.p1 @ a + b @ out.p2 @ b + a @ out.p12 @ b)
            * (out.cf_m2 + a @ out.q1 @ a + b @ out.q2 @ b + a @ out.q12 @ b)
            + out.cf_m3 + a @ out.r1 @ a + b @ out.r2 @ b + a @ out.r12 @ b)
    return envelope * poly / out.norm


def char_fn_heuristic(cm, alpha_pt, beta_pt, machinery=None):
    """Characteristic function after heuristic photon subtraction."""
    mach = ps2_heuristic(cm) if machinery is None else machinery
    a = np.asarray(alpha_pt, dtype=float).reshape(2)
    b = np.asarray(beta_pt, dtype=float).reshape(2)
    w = omega(1)
    sa, sb, e = cm.sigma_a, cm.sigma_b, cm.eps
    quad = (a @ w @ sa @ w.T @ a + b @ w @ sb @ w.T @ b
            + 2.0 * a @ w @ e @ w.T @ b)
    envelope = np.exp(-0.25 * quad)
    i2 = np.eye(2)
    poly = ((mach.m_b + b @ mach.big_b @ b + a @ mach.big_bc @ b
             + a @ mach.big_c @ a)
            * (mach.m_a + a @ mach.big_a @ a + a @ mach.big_ac @ b
               + b @ mach.big_c @ b)
            + mach.m_c - a @ mach.big_ac @ w @ e @ w.T @ a
            + 2.0 * b @ mach.big_c @ (i2 - w @ sb @ w.T) @ b
            + a @ (mach.big_ac @ (i2 - w @ sb @ w.T)
                   - 2.0 * w @ e @ w.T @ mach.big_c) @ b)
    return envelope * poly / mach.e0
