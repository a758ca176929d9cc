"""Quantum illumination of a weakly reflective object through an absorbing medium.

The target is a beam splitter of reflectivity eta embedded in a thermal
bath; absorption over the signal path contributes a multiplicative
e^{-gamma} to the effective (amplitude) reflectivity. The received states
and the quantum and classical Fisher informations are closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .core import GaussianState, SIGMA_Z, all_true, any_true
from .entanglement import BipartiteCM
from .estimation import GaussianFamily, RegularizationError


@dataclass
class QiParams:
    """Illumination parameters; the fields may be arrays that broadcast."""
    n_s: float          # signal photons
    n_th: float         # bath photons
    gamma: float = 0.0  # absorption exponent mu * L (dimensionless)
    eta: float = 0.0    # object intensity reflectivity

    def __post_init__(self):
        if (any_true((self.n_s < 0) | (self.n_th < 0) | (self.gamma < 0))
                or not all_true((0 <= self.eta) & (self.eta <= 1))):
            raise ValueError("invalid illumination parameters")


def eta_eff(eta, gamma):
    """Effective amplitude reflectivity eta * e^{-gamma} of object plus medium."""
    return eta * np.exp(-gamma)


def qi_probe(n_s, n_th):
    """Three-mode probe: thermal bath, signal, idler (zero displacement).

    The signal block carries the bath occupation on top of the two-mode
    squeezing so the thermal photon number is fixed and the protocol is
    free of shadow effects.
    """
    if n_s < 0 or n_th < 0:
        raise ValueError("photon numbers must be non-negative")
    sigma = np.zeros((6, 6))
    sigma[0:2, 0:2] = (1.0 + 2.0 * n_th) * np.eye(2)
    sigma[2:4, 2:4] = (1.0 + 2.0 * n_s + 2.0 * n_th) * np.eye(2)
    sigma[4:6, 4:6] = (1.0 + 2.0 * n_s) * np.eye(2)
    corr = 2.0 * np.sqrt(n_s * (n_s + 1.0)) * SIGMA_Z
    sigma[2:4, 4:6] = corr
    sigma[4:6, 2:4] = corr
    return GaussianState(np.zeros(6), sigma)


def probe_nu_minus(n_s, n_th):
    """Smaller PT symplectic eigenvalue of the signal-idler block, closed form."""
    root = np.sqrt(4.0 * n_s * (n_s + 1.0) + n_th ** 2)
    val = (8.0 * n_s ** 2 - 2.0 * (2.0 * n_s + n_th + 1.0) * root
           + 4.0 * n_s * n_th + 8.0 * n_s + 2.0 * n_th ** 2 + 2.0 * n_th + 1.0)
    return np.sqrt(val)


def received_params(params):
    """Standard-form triple of the received signal-idler state, elementwise:
    alpha = 1 + 2 n_th + 2 n_s x^2, beta = 1 + 2 n_s and
    gamma = 2 sqrt(n_s (1 + n_s)) x, with x = eta e^{-gamma}."""
    x = eta_eff(params.eta, params.gamma)
    return (1.0 + 2.0 * params.n_th + 2.0 * params.n_s * x ** 2, 1.0 + 2.0 * params.n_s,
            2.0 * np.sqrt(params.n_s * (1.0 + params.n_s)) * x)


def qi_received(params):
    """Received signal-idler covariance matrix (received_params), validated."""
    return BipartiteCM.standard_form(*received_params(params))


def h_q(params):
    """Quantum-probe QFI for the reflectivity, closed form at eta ~ 0."""
    if any_true(params.n_th <= 0.0):
        raise RegularizationError(
            "H_Q requires n_th > 0 (received state pure at the boundary)")
    n_s, n_th = params.n_s, params.n_th
    return (4.0 * n_s * np.exp(-2.0 * params.gamma) * (1.0 + n_s)
            / (1.0 + 2.0 * n_s * n_th + n_s + n_th))


def h_c(params):
    """Coherent-probe QFI for the reflectivity, closed form at eta ~ 0."""
    return (4.0 * np.exp(-2.0 * params.gamma) * params.n_s
            / (2.0 * params.n_th + 1.0))


def gain(params):
    """R = H_Q / H_C; independent of the absorption exponent."""
    n_s, n_th = params.n_s, params.n_th
    return ((1.0 + n_s) * (1.0 + 2.0 * n_th)
            / (1.0 + 2.0 * n_s * n_th + n_s + n_th))


def received_family(params):
    """Quantum received state as a Gaussian family in the reflectivity.

    Of the received_params triple only alpha and gamma depend on eta, through
    x = eta e^{-gamma}: dalpha = 4 n_s x e^{-gamma} and
    dgamma = 2 sqrt(n_s (1 + n_s)) e^{-gamma}.
    """
    n_s, e = params.n_s, np.exp(-params.gamma)
    return GaussianFamily(*received_params(params), 4.0 * n_s * params.eta * e * e, 0.0,
                          2.0 * np.sqrt(n_s * (1.0 + n_s)) * e, (0.0, 0.0, 0.0, 0.0),
                          params.eta)


def classical_received_family(params):
    """Coherent-probe received state (with a passive thermal spectator mode).

    Pre-channel the probe is a coherent state with alpha^2 = n_s in the
    real-basis displacement (0, 0, sqrt(2) alpha, 0) on (bath, signal);
    after the interaction and the trace of the losses the received mode has
    variance 1 + 2 n_th (1 - x^2) and carries d = (sqrt(2) e^{-gamma} alpha
    eta, 0). The spectator, of variance 1 + 2 n_th, keeps the family
    two-mode without touching the information content.
    """
    n_th, e = params.n_th, np.exp(-params.gamma)
    x = params.eta * e
    return GaussianFamily(1.0 + 2.0 * n_th * (1.0 - x ** 2), 1.0 + 2.0 * n_th, 0.0,
                          -4.0 * n_th * x * e, 0.0, 0.0,
                          (np.sqrt(2.0 * params.n_s) * e, 0.0, 0.0, 0.0), params.eta)
