"""Gaussian quantum Fisher information, SLDs, and optimal observables.

The derivatives of the covariance matrix and displacement vector are
central differences, Richardson refined. The symmetric logarithmic
derivative solves Monras' linear system in the complex (ladder-operator)
basis (A. Monras, arXiv:1303.3682) for any number of modes; the QFI is
its variance, and the SLD maps back to a quadratic form in the quadratures.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GaussianState, omega

PURE_TOL = 1e-7
DSIGMA_FLOOR = 1e-12


class RegularizationError(RuntimeError):
    """QFI/SLD requested on (nearly) pure states where the formulas are singular.

    Perturb the family with a small thermal occupation (n ~ 1e-6) if the
    value at the pure boundary is needed.
    """


@dataclass
class GaussianFamily:
    """One-parameter family of Gaussian states, lambda -> GaussianState."""
    evaluator: Callable[[float], GaussianState]
    lambda0: float
    step: float = 1e-4

    def __call__(self, lam):
        return self.evaluator(lam)


@dataclass
class QuadraticObservable:
    """const + lin . r + r^T quad r with symmetrized operator ordering."""
    quad: np.ndarray
    lin: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        self.quad = np.asarray(self.quad, dtype=float)
        self.lin = np.asarray(self.lin, dtype=float).reshape(-1)
        if np.max(np.abs(self.quad - self.quad.T)) > 1e-10:
            raise ValueError("quadratic coefficient matrix must be symmetric")

    def scaled(self, factor):
        return QuadraticObservable(self.quad * factor, self.lin * factor,
                                   self.const * factor)

    def shifted(self, offset):
        return QuadraticObservable(self.quad, self.lin, self.const + offset)


def _complex_basis(n_modes):
    """W with A = W r, A = (a_1..a_N, a_1^dag..a_N^dag), r interleaved."""
    w = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for j in range(n_modes):
        w[j, 2 * j] = 1.0 / np.sqrt(2.0)
        w[j, 2 * j + 1] = 1j / np.sqrt(2.0)
        w[n_modes + j, 2 * j] = 1.0 / np.sqrt(2.0)
        w[n_modes + j, 2 * j + 1] = -1j / np.sqrt(2.0)
    return w


def _derivatives(family):
    """(state at lambda0, dSigma, dd) from five family evaluations.

    Central differences at the family step and at half of it, combined by
    Richardson extrapolation.
    """
    lam0, h = family.lambda0, family.step
    state0 = family(lam0)

    def central(step):
        sp, sm = family(lam0 + step), family(lam0 - step)
        return (sp.sigma - sm.sigma) / (2.0 * step), (sp.d - sm.d) / (2.0 * step)

    (ds_h, dd_h), (ds_2, dd_2) = central(h), central(h / 2.0)
    return state0, (4.0 * ds_2 - ds_h) / 3.0, (4.0 * dd_2 - dd_h) / 3.0


def gaussian_qfi(family):
    """QFI of a Gaussian family at family.lambda0, any number of modes.

    H = Re vec(dSigma)^dag M^-1 vec(dSigma) / 2 + 2 dd^T Sigma^-1 dd with
    M = Sigma^* (x) Sigma - K (x) K in the complex basis. Raises
    RegularizationError near the pure-state boundary when the covariance
    matrix carries parameter dependence.
    """
    state0, dsigma, dd = _derivatives(family)
    if np.max(np.abs(dsigma)) < DSIGMA_FLOOR:
        return float(2.0 * dd @ np.linalg.solve(state0.sigma, dd))
    return _sld_matrices(state0, dsigma, dd)[2]


def _sld_matrices(state, dsigma, dd):
    """Solve M vec(A) = vec(dSigma) in the complex basis; returns (A, y, H)."""
    if state.symplectic_eigenvalues().min() < 1.0 + PURE_TOL:
        raise RegularizationError(
            "regularization required: SLD system singular for (nearly) pure states")
    n_modes = state.n_modes
    w = _complex_basis(n_modes)
    sigma_c = w @ state.sigma @ w.conj().T
    dsigma_c = w @ dsigma @ w.conj().T
    dd_c = w @ dd
    k = np.diag(np.repeat([1.0, -1.0], n_modes))
    mm = np.kron(sigma_c.conj(), sigma_c) - np.kron(k, k)
    v = dsigma_c.reshape(-1, order="F")
    avec = np.linalg.solve(mm, v)
    y = np.linalg.solve(sigma_c, dd_c)
    h = 0.5 * (v.conj() @ avec).real + 2.0 * (dd_c.conj() @ y).real
    return avec.reshape(2 * n_modes, 2 * n_modes, order="F"), y, float(h)


def _sld_to_quadratic(state, a_mat, y):
    """Map the complex-basis SLD coefficients to a real quadratic observable."""
    n_modes = state.n_modes
    w = _complex_basis(n_modes)
    m = w.conj().T @ a_mat @ w
    m_sym = 0.5 * (m + m.T)
    # constant picked up when writing the unsymmetrized product in
    # symmetrized form: r_a r_b = {r_a, r_b}/2 + i Omega_ab / 2
    comm_const = 0.5j * np.trace(m @ omega(n_modes).T)
    lin_centered = 2.0 * (w.conj().T @ y)
    d = state.d
    quad = m_sym.real
    lin = lin_centered.real - 2.0 * quad @ d
    const = (d @ quad @ d - lin_centered.real @ d
             + comm_const.real - 0.5 * np.trace(state.sigma @ m).real)
    imag_leak = max(np.max(np.abs(m_sym.imag)), np.max(np.abs(lin_centered.imag)))
    if imag_leak > 1e-8:
        raise ValueError("SLD mapping produced non-Hermitian coefficients")
    return QuadraticObservable(quad, lin, float(const))


def gaussian_sld(family):
    """Symmetric logarithmic derivative of the family at lambda0.

    Returns the quadratic observable L with {L, rho} = 2 d rho / d lambda;
    Tr[rho L] = 0 at the operating point.
    """
    state0, dsigma, dd = _derivatives(family)
    if np.max(np.abs(dsigma)) < DSIGMA_FLOOR and np.max(np.abs(dd)) < DSIGMA_FLOOR:
        n = 2 * state0.n_modes
        return QuadraticObservable(np.zeros((n, n)), np.zeros(n), 0.0)
    a_mat, y, _ = _sld_matrices(state0, dsigma, dd)
    return _sld_to_quadratic(state0, a_mat, y)


def optimal_observable(family):
    """lambda * identity + SLD / QFI: unbiased at the operating point.

    The expectation value on the state at lambda0 equals lambda0 and the
    quantum Cramer-Rao bound is saturated by its maximum-likelihood
    post-processing.
    """
    state0, dsigma, dd = _derivatives(family)
    a_mat, y, h = _sld_matrices(state0, dsigma, dd)
    if h <= 0.0:
        raise ValueError("QFI vanishes: no optimal observable")
    sld = _sld_to_quadratic(state0, a_mat, y)
    return sld.scaled(1.0 / h).shifted(family.lambda0)


def observable_moments(state, obs):
    """Exact Gaussian (mean, variance) of a symmetrized quadratic observable."""
    if obs.quad.shape[0] != 2 * state.n_modes:
        raise ValueError("observable dimension does not match the state")
    q = obs.quad
    sigma = state.sigma
    d = state.d
    w = omega(state.n_modes)
    mean = obs.const + obs.lin @ d + d @ q @ d + 0.5 * np.trace(q @ sigma)
    b = obs.lin + 2.0 * q @ d
    var_quad = 0.5 * np.trace(q @ sigma @ q @ sigma) + 0.5 * np.trace(q @ w @ q @ w)
    var_lin = 0.5 * b @ sigma @ b
    return float(mean), float(var_quad + var_lin)
