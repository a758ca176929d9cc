"""Average fidelities of coherent-state teleportation for Gaussian and
photon-subtracted resources, including finite-gain homodyne detection.

All channel-dependent fidelities take the attenuation parameters
(mu, L, n_th, r, n, eta_ant) and build covariance matrices through the
channel module, so the distance conventions (full L for the asymmetric
state, L/2 per arm for the symmetric and swapped ones) live in one place.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import SIGMA_Z
from .entanglement import BipartiteCM, cm_validity
from . import channel as channel_mod
from . import distill

CLASSICAL_FIDELITY = 0.5


def gamma_of(cm):
    """Gamma = sigma_z Sigma_A sigma_z + Sigma_B - sigma_z eps - eps^T sigma_z."""
    return (SIGMA_Z @ cm.sigma_a @ SIGMA_Z + cm.sigma_b
            - SIGMA_Z @ cm.eps - cm.eps.T @ SIGMA_Z)


def fidelity_gaussian(cm):
    """Average fidelity 1/sqrt(det[I + Gamma/2]) for a Gaussian resource.

    Independent of the displacement of the teleported coherent state.
    """
    det = np.linalg.det(np.eye(2) + 0.5 * gamma_of(cm))
    if det <= 0.0:
        raise ValueError("ill-conditioned resource: det[I + Gamma/2] <= 0")
    return 1.0 / np.sqrt(det)


def fidelity_concatenated(cm, k):
    """Fidelity of k concatenated protocols: 1/sqrt(det[I + (k - 1/2) Gamma])."""
    if k < 1 or k != int(k):
        raise ValueError("k must be a positive integer")
    det = np.linalg.det(np.eye(2) + (k - 0.5) * gamma_of(cm))
    return 1.0 / np.sqrt(det)


def fidelity_ps_tmsv(lambda_tau, k):
    """Closed-form fidelity for 2k-photon-subtracted TMSV resources, k in {1, 2}."""
    lt = lambda_tau
    if not 0.0 <= lt < 1.0:
        raise ValueError("lambda_tau must lie in [0, 1)")
    if k == 1:
        return (1.0 - lt + lt ** 2 / 2.0) * (1.0 + lt) ** 3 / (2.0 * (1.0 + lt ** 2))
    if k == 2:
        s = lt * (2.0 - lt)
        return ((1.0 + lt) ** 5 * (8.0 - s * (8.0 - 3.0 * s))
                / (16.0 * (1.0 + 4.0 * lt ** 2 + lt ** 4)))
    raise ValueError("k must be 1 (2PS) or 2 (4PS)")


def fidelity_2ps_general(cm, tau, outcome=None):
    """Fidelity with symmetric two-photon subtraction: (fbar, g).

    fbar = (1 + g) / sqrt(det[I + Gamma-tilde/2]) with Gamma-tilde built
    from the subtraction-modified submatrices and g the non-Gaussian
    correction.
    """
    out = distill.ps2_gaussian(cm, tau) if outcome is None else outcome
    cm_tilde = BipartiteCM(out.sigma_a, out.sigma_b, out.eps, check=False)
    det = np.linalg.det(np.eye(2) + 0.5 * gamma_of(cm_tilde))
    if det <= 0.0:
        raise ValueError("ill-conditioned photon-subtracted resource")
    return (1.0 + out.g) / np.sqrt(det), out.g


def fidelity_heuristic(cm, machinery=None):
    """Fidelity with heuristic photon subtraction: (fbar, h)."""
    mach = distill.ps2_heuristic(cm) if machinery is None else machinery
    det = np.linalg.det(np.eye(2) + 0.5 * gamma_of(cm))
    return (1.0 + mach.h) / np.sqrt(det), mach.h


def regaussify(cm_tilde, correction, mode="sym"):
    """Gaussian resource with the same fidelity as the photon-subtracted one.

    For the probabilistic protocol, cm_tilde holds the subtraction-modified
    submatrices and correction = g; for the heuristic one, the bare
    submatrices and correction = h. Returns (BipartiteCM, theta, valid);
    the covariance matrix is returned even when flagged invalid.
    """
    c = correction
    i2 = np.eye(2)
    if mode == "sym":
        sigma_a = (cm_tilde.sigma_a - c * i2) / (1.0 + c)
        sigma_b = (cm_tilde.sigma_b - c * i2) / (1.0 + c)
    elif mode == "asym":
        avg = 0.5 * (cm_tilde.sigma_a + cm_tilde.sigma_b)
        sigma_a = (avg - c * i2) / (1.0 + c)
        sigma_b = sigma_a.copy()
    else:
        raise ValueError("mode must be 'sym' or 'asym'")
    eps = cm_tilde.eps / (1.0 + c)
    out = BipartiteCM(sigma_a, sigma_b, eps, check=False)
    try:
        alpha, beta, gamma = out.standard_params()
        theta, valid = cm_validity(alpha, beta, gamma)
    except ValueError:
        theta, valid = np.nan, False
    return out, theta, valid


def fidelity_swapped(alpha, beta, gamma):
    """Fidelity with the entanglement-swapped resource: 1/(1 + alpha - gamma^2/beta)."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return 1.0 / (1.0 + alpha - gamma ** 2 / beta)


def fidelity_finite_gain(alpha, beta, gamma, g, theta=0.0):
    """Teleportation fidelity with finite-gain homodyne detection.

    g is the homodyne gain (g -> infinity recovers the ideal result);
    theta is the amplitude of the teleported coherent state.
    """
    if g <= 0.0:
        raise ValueError("gain must be positive")
    rg = 1.0 / np.sqrt(g)
    num = 2.0 * (2.0 + rg * (1.0 + alpha))
    den = (4.0 * (1.0 + 0.5 * (alpha + beta - 2.0 * gamma))
           + rg * (alpha * (5.0 + beta) + beta - (gamma - 1.0) * (gamma + 5.0))
           + (2.0 / g) * (1.0 + alpha))
    base = num / den
    if theta != 0.0:
        expo = (-(2.0 / g) * (1.0 - alpha + gamma) ** 2 * abs(theta) ** 2
                / ((2.0 + rg * (1.0 + alpha)) * den))
        base *= np.exp(expo)
    return base


def swapped_finite_gain_params(alpha, beta, gamma, g):
    """(alpha_tilde, gamma_tilde) of the swapped resource at finite gain g."""
    rg = 1.0 / np.sqrt(g)
    den = 2.0 * (beta + rg * (1.0 + beta ** 2) + beta / g)
    alpha_t = alpha - gamma ** 2 * (1.0 + 2.0 * rg * beta + 1.0 / g) / den
    gamma_t = gamma ** 2 * (1.0 - 1.0 / g) / den
    return alpha_t, gamma_t


@dataclass
class TeleportResource:
    """Resource selector for the distance-dependent fidelity sweeps.

    kind: tmst-asym | tmst-sym | 2ps-prob-asym | 2ps-prob-sym |
          2ps-heur-asym | 2ps-heur-sym | swap | tmst-asym-fg |
          tmst-sym-fg | swap-fg
    """
    kind: str
    r: float
    n: float
    mu: float
    n_th: float
    eta_ant: float = 0.0
    tau: float = 0.95
    inv_gain: float = 0.0
    theta: float = 0.0

    KINDS = ("tmst-asym", "tmst-sym", "2ps-prob-asym", "2ps-prob-sym",
             "2ps-heur-asym", "2ps-heur-sym", "swap",
             "tmst-asym-fg", "tmst-sym-fg", "swap-fg")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError("unknown resource kind %r" % self.kind)
        if self.kind.endswith("-fg") and not (math.isfinite(self.inv_gain)
                                              and self.inv_gain > 0.0):
            raise ValueError("finite-gain resources need a finite inv_gain > 0")

    @property
    def geometry(self):
        """Geometry of the underlying lossy TMST; swap links are asym."""
        return "sym" if "sym" in self.kind.split("-") else "asym"

    def _cm(self, length, geometry):
        ch = channel_mod.AirChannel(self.mu, length, self.n_th, self.eta_ant)
        return channel_mod.lossy_tmst(ch, self.r, self.n, geometry)

    def fidelity(self, length):
        kind = self.kind
        if kind in ("swap", "swap-fg"):
            # two identical links of length L/2; Charlie measures the lossy
            # modes, so alpha is the retained (lossless) block of each link
            link = self._cm(length / 2.0, self.geometry)
            alpha_l, beta_l = link.sigma_b[0, 0], link.sigma_a[0, 0]
            gamma_l = link.eps[0, 0]
            if kind == "swap":
                return fidelity_swapped(alpha_l, beta_l, gamma_l)
            gain = 1.0 / self.inv_gain
            a_t, g_t = swapped_finite_gain_params(alpha_l, beta_l, gamma_l, gain)
            return fidelity_finite_gain(a_t, a_t, g_t, gain, self.theta)
        cm = self._cm(length, self.geometry)
        if kind.startswith("2ps-prob"):
            return fidelity_2ps_general(cm, self.tau)[0]
        if kind.startswith("2ps-heur"):
            return fidelity_heuristic(cm)[0]
        if not kind.endswith("-fg"):
            return fidelity_gaussian(cm)
        alpha, beta, gamma = cm.standard_params()
        return fidelity_finite_gain(alpha, beta, gamma, 1.0 / self.inv_gain,
                                    self.theta)

    def classical_limit_distance(self, l_max=5000.0, tol=0.01):
        """Distance where the fidelity crosses 1/2, by bisection (meters)."""
        f0 = self.fidelity(0.0)
        if f0 <= CLASSICAL_FIDELITY:
            return 0.0
        lo, hi = 0.0, l_max
        if self.fidelity(hi) > CLASSICAL_FIDELITY:
            raise ValueError("fidelity stays above 1/2 up to %.0f m" % l_max)
        return brentq(lambda ll: self.fidelity(ll) - CLASSICAL_FIDELITY,
                      lo, hi, xtol=tol)
