"""Independent references the benchmark checks cvmw outputs against.

Everything here is written from the closed forms in the standard-form
(alpha, beta, gamma) picture and vectorized over distance; none of it goes
through cvmw's covariance-matrix kernels, so a change to those kernels is
checked rather than echoed.
"""

import numpy as np

LIGHT_SPEED = 299792458.0


def standard_form(p, length, geometry):
    """(alpha, beta, gamma) of the lossy two-mode squeezed thermal state.

    alpha belongs to the mode that travels (both modes in the symmetric
    geometry, each over half the distance); beta to the mode kept at the
    source in the asymmetric geometry.
    """
    length = np.asarray(length, dtype=float)
    dist = length if geometry == "asym" else length / 2.0
    eta = 1.0 - np.exp(-p["mu"] * dist) * (1.0 - p["eta_ant"])
    scale = 1.0 + 2.0 * p["n"]
    c2, s2 = np.cosh(2.0 * p["r"]), np.sinh(2.0 * p["r"])
    alpha = (1.0 + 2.0 * p["n_th"]) * eta + scale * (1.0 - eta) * c2
    if geometry == "asym":
        return alpha, np.full_like(alpha, scale * c2), scale * np.sqrt(1.0 - eta) * s2
    return alpha, alpha, scale * (1.0 - eta) * s2


def nu_minus(alpha, beta, gamma):
    """Smaller partially transposed symplectic eigenvalue, cancellation-free."""
    delta = alpha ** 2 + beta ** 2 + 2.0 * gamma ** 2
    det = (alpha * beta - gamma ** 2) ** 2
    return np.sqrt(2.0 * det / (delta + np.sqrt(np.maximum(delta ** 2 - 4.0 * det, 0.0))))


def negativity(nu):
    return np.maximum(0.0, (1.0 - nu) / (2.0 * nu))


def log_negativity(nu):
    return np.maximum(0.0, -np.log2(nu))


def theta(alpha, beta, gamma):
    """Validity margin |sqrt(det Sigma) - 1| - |alpha - beta|; -inf below vacuum."""
    out = np.abs(np.abs(alpha * beta - gamma ** 2) - 1.0) - np.abs(alpha - beta)
    return np.where((alpha < 1.0) | (beta < 1.0), -np.inf, out)


def fidelity_tmst(alpha, beta, gamma):
    """1 / sqrt(det[I + Gamma/2]) with Gamma = (alpha + beta - 2 gamma) I."""
    return 1.0 / (1.0 + 0.5 * (alpha + beta - 2.0 * gamma))


def regaussify(alpha, beta, gamma, c, geometry):
    """Standard-form triple of the Gaussian resource with correction c folded in."""
    if geometry == "asym":
        alpha = beta = 0.5 * (alpha + beta)
    return (alpha - c) / (1.0 + c), (beta - c) / (1.0 + c), gamma / (1.0 + c)


def fspl_db(nu, d):
    return 20.0 * np.log10(4.0 * np.pi * np.asarray(d) * nu / LIGHT_SPEED)


def omega(n_modes):
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def gaussian_qfi(sigma_of, lam0, step):
    """QFI of a zero-mean Gaussian family, after Monras (arXiv:1303.3682).

    H = 1/2 vec(dSigma)^T (Sigma (x) Sigma - Omega (x) Omega)^-1 vec(dSigma)
    for the vacuum-is-identity convention, with a central difference for
    dSigma. Works for any number of modes.
    """
    sigma = sigma_of(lam0)
    dsigma = (sigma_of(lam0 + step) - sigma_of(lam0 - step)) / (2.0 * step)
    w = omega(sigma.shape[0] // 2)
    m = np.kron(sigma, sigma) - np.kron(w, w)
    v = dsigma.reshape(-1)
    return float(0.5 * v @ np.linalg.solve(m, v))
