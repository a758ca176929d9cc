"""The general N-mode Gaussian QFI, SLD and optimal observable: the oracle
for the library's closed-form two-mode QFI and observable coefficients.

A one-parameter family enters as a MatrixFamily: the state at the operating
point and the first derivatives of its covariance matrix and displacement
vector. The symmetric logarithmic derivative solves Monras' linear system
(A. Monras, arXiv:1303.3682) for any number of modes, written in the real
quadrature basis and whitened by the square root of the covariance matrix;
the QFI is the SLD's variance, and the SLD is a quadratic form in the
quadratures.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from cvmw.bifreq import ObservableCoeffs, received_family
from cvmw.core import GaussianState, omega
from cvmw.entanglement import BipartiteCM

# the library's thresholds, restated
PURE_TOL = 1e-7
DSIGMA_FLOOR = 1e-12


class RegularizationError(RuntimeError):
    """The Monras system is singular: the state is (nearly) pure."""


@dataclass
class MatrixFamily:
    """One-parameter family of Gaussian states at its operating point lambda0:
    the state there and dSigma/dlambda, dd/dlambda."""
    state: GaussianState
    dsigma: np.ndarray
    dd: np.ndarray
    lambda0: float


def matrix_family(jet):
    """A scalar two-mode standard-form jet (the library's GaussianFamily,
    read by its field names) as a MatrixFamily with zero displacement."""
    sigma, dsigma = (BipartiteCM.standard_form(a, b, g, check=False).matrix for a, b, g in
                     ((jet.alpha, jet.beta, jet.gamma), (jet.dalpha, jet.dbeta, jet.dgamma)))
    return MatrixFamily(GaussianState(np.zeros(4), sigma), dsigma,
                        np.array(jet.dd, dtype=float), jet.lambda0)


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


def gaussian_qfi(family):
    """QFI of a Gaussian family at family.lambda0, any number of modes.

    H = tr(dSigma A) / 2 + 2 dd^T Sigma^-1 dd, where A solves
    Sigma A Sigma + Omega A Omega = dSigma. Raises RegularizationError near
    the pure-state boundary when the covariance matrix carries parameter
    dependence.
    """
    state0, dsigma, dd = family.state, family.dsigma, family.dd
    if np.max(np.abs(dsigma)) < DSIGMA_FLOOR:
        return float(2.0 * dd @ np.linalg.solve(state0.sigma, dd))
    return _sld_matrices(state0, dsigma, dd)[2]


def gaussian_qfi_mp(sigma, dsigma, dd=(0, 0, 0, 0), dps=60):
    """The two-mode QFI at dps digits: the H of gaussian_sld_mp."""
    return gaussian_sld_mp(sigma, dsigma, dd, dps)[1]


def gaussian_sld_mp(sigma, dsigma, dd=(0, 0, 0, 0), dps=60):
    """The two-mode SLD's quadratic coefficient matrix A and the QFI at dps
    digits, by LU: the real-basis Monras system
    (Sigma (x) Sigma - Omega (x) Omega) vec A = vec dSigma, then
    H = vec(dSigma) . vec A / 2 + 2 dd^T Sigma^-1 dd. sigma and dsigma are
    4 x 4, as mpmath matrices or nested lists of floats or mpf, taken
    exactly; returns (A as a 4 x 4 mpmath matrix, H as an mpf)."""
    om = omega(2)
    with mpmath.workdps(dps):
        sig, dsig = mpmath.matrix(sigma), mpmath.matrix(dsigma)
        mm = mpmath.matrix(16, 16)
        for row in range(16):
            for col in range(16):
                (i, k), (j, l) = divmod(row, 4), divmod(col, 4)
                mm[row, col] = sig[i, j] * sig[k, l] - om[i, j] * om[k, l]
        vec = mpmath.matrix([dsig[i, j] for i in range(4) for j in range(4)])
        vec_a = mpmath.lu_solve(mm, vec)
        dd = mpmath.matrix(list(dd))
        a_mat = mpmath.matrix([[vec_a[4 * i + j] for j in range(4)] for i in range(4)])
        return a_mat, ((vec.T * vec_a)[0] / 2
                       + 2 * (dd.T * mpmath.lu_solve(sig, dd))[0])


def _sld_matrices(state, dsigma, dd):
    """Quadratic and linear SLD coefficients A, Sigma^-1 dd and the QFI H.

    The Monras system is solved whitened by Sigma^(1/2): with
    K = Sigma^(-1/2) Omega Sigma^(-1/2) and B = Sigma^(1/2) A Sigma^(1/2) it
    reads B + K B K = Sigma^(-1/2) dSigma Sigma^(-1/2). Its spectrum is
    1 +- 1/(nu_j nu_k), so squeezing does not enter its conditioning.
    """
    if state.symplectic_eigenvalues().min() < 1.0 + PURE_TOL:
        raise RegularizationError(
            "regularization required: SLD system singular for (nearly) pure states")
    n = 2 * state.n_modes
    lam, u = np.linalg.eigh(state.sigma)
    r_inv = (u / np.sqrt(lam)) @ u.T
    k = r_inv @ omega(state.n_modes) @ r_inv
    p = r_inv @ dsigma @ r_inv
    # vec(K B K) = (K^T (x) K) vec(B) = -(K (x) K) vec(B), column-major vec
    k_k = (k[:, None, :, None] * k[None, :, None, :]).reshape(n * n, n * n)
    b = np.linalg.solve(np.eye(n * n) - k_k, p.reshape(-1, order="F"))
    b = b.reshape(n, n, order="F")
    y = np.linalg.solve(state.sigma, dd)
    a_mat = r_inv @ b @ r_inv
    return 0.5 * (a_mat + a_mat.T), y, float(0.5 * np.sum(p * b) + 2.0 * dd @ y)


def _sld_to_quadratic(state, a_mat, y):
    """SLD (r - d)^T A (r - d) + 2 y^T (r - d) - tr(Sigma A) / 2 as an observable."""
    d = state.d
    lin = 2.0 * y - 2.0 * a_mat @ d
    const = d @ a_mat @ d - 2.0 * y @ d - 0.5 * np.trace(state.sigma @ a_mat)
    return QuadraticObservable(a_mat, lin, float(const))


def gaussian_sld(family):
    """Symmetric logarithmic derivative of the family at lambda0.

    Returns the quadratic observable L with {L, rho} = 2 d rho / d lambda;
    Tr[rho L] = 0 at the operating point.
    """
    state0, dsigma, dd = family.state, family.dsigma, family.dd
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
    state0 = family.state
    a_mat, y, h = _sld_matrices(state0, family.dsigma, family.dd)
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


def as_quadratic(coeffs):
    """Quadrature representation of bi-frequency ladder-operator coefficients
    O = l11 n_1 + l22 n_2 + l12 (a1+ a2+ + a1 a2) + l0 (bifreq.ObservableCoeffs)."""
    quad = np.zeros((4, 4))
    quad[0, 0] = quad[1, 1] = coeffs.l11 / 2.0
    quad[2, 2] = quad[3, 3] = coeffs.l22 / 2.0
    quad[0, 2] = quad[2, 0] = coeffs.l12 / 2.0
    quad[1, 3] = quad[3, 1] = -coeffs.l12 / 2.0
    const = coeffs.l0 - 0.5 * (coeffs.l11 + coeffs.l22)
    return QuadraticObservable(quad, np.zeros(4), const)


def optimal_observable_numeric(params):
    """The SLD-based optimal observable of the bi-frequency received family
    mapped to ladder coefficients: the check of bifreq.optimal_coeffs."""
    obs = optimal_observable(matrix_family(received_family(params)))
    q = obs.quad
    l11 = q[0, 0] + q[1, 1]
    l22 = q[2, 2] + q[3, 3]
    l12 = q[0, 2] - q[1, 3]
    resid = max(abs(q[0, 1]), abs(q[2, 3]), abs(q[0, 3]), abs(q[1, 2]),
                abs(q[0, 0] - q[1, 1]), abs(q[2, 2] - q[3, 3]),
                abs(q[0, 2] + q[1, 3]))
    if resid > 1e-6 * max(1.0, abs(l12)):
        raise ValueError("SLD is not of the expected photon-counting form")
    l0 = obs.const + 0.5 * (l11 + l22)
    return ObservableCoeffs(float(l11), float(l22), float(l12), float(l0))
