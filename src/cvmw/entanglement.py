"""Bipartite Gaussian entanglement measures and covariance-matrix validity."""

import math

import numpy as np

from .core import GaussianState, SIGMA_Z, math_map, pow2_scale


class BipartiteCM(GaussianState):
    """Zero-mean two-mode GaussianState read in submatrix form (Sigma_A,
    Sigma_B, eps_AB): the blocks are views of Sigma, read-only once valid."""

    def __init__(self, sigma_a, sigma_b, eps, check=True):
        blocks = [np.asarray(m, dtype=float) for m in (sigma_a, sigma_b, eps)]
        if any(m.shape != (2, 2) for m in blocks):
            raise ValueError("submatrices must be 2x2")
        sigma_a, sigma_b, eps = blocks
        super().__init__(np.zeros(4), np.block([[sigma_a, eps], [eps.T, sigma_b]]),
                         check=check)

    @classmethod
    def standard_form(cls, alpha, beta, gamma, check=True):
        """Sigma_A = alpha*I, Sigma_B = beta*I, eps = gamma*sigma_z."""
        return cls(alpha * np.eye(2), beta * np.eye(2), gamma * SIGMA_Z, check=check)

    @classmethod
    def from_matrix(cls, sigma, check=True):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (4, 4):
            raise ValueError("expected a 4x4 covariance matrix")
        return cls(sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:], check=check)

    @classmethod
    def from_state(cls, state, check=True):
        if state.n_modes != 2:
            raise ValueError("expected a two-mode state")
        return cls.from_matrix(state.sigma, check=check)

    sigma_a = property(lambda self: self.sigma[:2, :2])
    sigma_b = property(lambda self: self.sigma[2:, 2:])
    eps = property(lambda self: self.sigma[:2, 2:])
    matrix = property(lambda self: self.sigma.copy())

    def to_state(self):
        """The CM itself once validated, else a validated copy."""
        return self if self._nu is not None else GaussianState(self.d, self.sigma)

    def standard_params(self):
        """(alpha, beta, gamma) if the CM is in standard form, else ValueError."""
        alpha, beta, gamma = self.sigma[0, 0], self.sigma[2, 2], self.sigma[0, 2]
        if np.max(np.abs(self.sigma - self.standard_form(
                alpha, beta, gamma, check=False).sigma)) > 1e-10:
            raise ValueError("covariance matrix is not in standard form")
        return alpha, beta, gamma


def pts_eigenvalues(cm):
    """Partially transposed symplectic eigenvalues (nu_minus, nu_plus)."""
    det_a = np.linalg.det(cm.sigma_a)
    det_b = np.linalg.det(cm.sigma_b)
    det_e = np.linalg.det(cm.eps)
    det_s = np.linalg.det(cm.sigma)
    delta = det_a + det_b - 2.0 * det_e
    disc = delta ** 2 - 4.0 * det_s
    if disc < -1e-9 * max(1.0, delta ** 2):
        raise ValueError("complex branch: input is not a valid covariance matrix")
    root = np.sqrt(max(disc, 0.0))
    # nu_minus^2 = (delta - root) / 2 = 2 det / (delta + root): the second
    # form has no cancellation when nu_minus << nu_plus
    nu_minus = np.sqrt(2.0 * max(det_s, 0.0) / (delta + root))
    nu_plus = np.sqrt((delta + root) / 2.0)
    return nu_minus, nu_plus


def nu_minus_standard(alpha, beta, gamma):
    """nu_minus of the standard-form matrix (alpha I, beta I, gamma sigma_z),
    elementwise over arrays.

    nu_minus nu_plus = sqrt(det Sigma) = |D| with D = alpha beta - gamma^2,
    and the larger eigenvalue nu_plus = (alpha + beta)/2 + hypot((alpha -
    beta)/2, gamma) is a sum, so nu_minus = |D| / nu_plus subtracts nothing
    but D. nu_minus is homogeneous of degree 1, so the entries are scaled by
    the power of two s = pow2_scale(alpha + beta), which is exact, and the
    result divided by it: alpha beta stays finite where the entries pass
    1e154. D is never squared: where beta / alpha falls below 1e-154, D^2 of
    the scaled entries would underflow, but D does not.
    """
    s = pow2_scale(alpha + beta)
    alpha, beta, gamma = alpha * s, beta * s, gamma * s
    nu_plus = 0.5 * (alpha + beta) + np.hypot(0.5 * (alpha - beta), gamma)
    return np.abs(alpha * beta - gamma ** 2) / nu_plus / s


def negativity_from_nu(nu_minus):
    """N = max{0, (1 - nu_minus) / (2 nu_minus)}, elementwise."""
    return np.maximum(0.0, (1.0 - nu_minus) / (2.0 * nu_minus))


def log_negativity_from_nu(nu_minus):
    """E_N = max{0, -log2 nu_minus}, elementwise through core.math_map."""
    return math_map(_log_negativity, nu_minus)


def _log_negativity(nu):  # math.log2 raises at 0, which maps to inf, and below
    if nu >= 1.0:
        return 0.0  # not -log2(1) = -0.0
    return -math.log2(nu) if nu > 0.0 else math.inf if nu == 0.0 else math.nan


def negativity(cm):
    """Negativity of the partial transpose (negativity_from_nu)."""
    return negativity_from_nu(pts_eigenvalues(cm)[0])


def cm_validity(alpha, beta, gamma):
    """Combined positivity / uncertainty check for standard-form submatrices,
    elementwise over arrays.

    Returns (theta, valid) with theta = |sqrt(det Sigma) - 1| - |alpha - beta|;
    theta is -inf, and valid False, where alpha < 1 or beta < 1. valid also
    needs D = alpha beta - gamma^2 >= 1: theta >= 0 alone holds at D < 1.
    """
    d = alpha * beta - gamma ** 2
    theta = np.where((alpha < 1.0) | (beta < 1.0), -np.inf,
                     np.abs(np.abs(d) - 1.0) - np.abs(alpha - beta))[()]
    return theta, (theta >= -1e-10) & (d >= 1.0 - 1e-10)
