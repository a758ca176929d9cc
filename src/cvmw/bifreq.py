"""Bi-frequency illumination: estimating the reflectivity difference of a
target probed at two nearby frequencies.

The probe is either a two-mode squeezed thermal state (quantum strategy)
or a pair of coherent beams with the same per-mode photon number. Both
received states are two-mode standard-form states, affine in
eta2 = eta1 + lambda and sqrt(eta2), so their jets in the difference
parameter are closed forms. The quantum-probe QFI at lambda -> 0 is the
exact Gaussian QFI of that jet, and its optimal observable the SLD over
that QFI; the coherent-probe QFI and the high-reflectivity / high-noise
enhancement ratios have closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianState, all_true, any_true, log_grid, physical_diagonal, sqrt, where
from .entanglement import BipartiteCM
from .estimation import GaussianFamily, gaussian_qfi, sld_standard_form
from .teleport import anderson_bjorck


@dataclass
class BifreqParams:
    """Parameters of the bi-frequency protocol.

    n_r is the squeezing-photon parameter appearing in every closed form
    of this module (received-state entries, enhancement-ratio limits,
    observable coefficients); the probe itself carries sinh^2(r) = 2 n_r
    squeezing photons per mode under this normalization. Fields may be arrays.
    """
    eta1: float        # reference reflectivity
    lam: float = 0.0   # reflectivity difference eta2 - eta1
    n_r: float = 0.0   # squeezing-photon parameter
    n: float = 0.0     # input thermal photons per mode
    n_th: float = 0.0  # environment photons per frequency

    def __post_init__(self):
        eta2 = self.eta1 + self.lam
        if not all_true((0.0 <= self.eta1) & (self.eta1 <= 1.0)
                        & (0.0 <= eta2) & (eta2 <= 1.0)):
            raise ValueError("reflectivities must lie in [0, 1]")
        if any_true((self.n_r < 0.0) | (self.n < 0.0) | (self.n_th < 0.0)):
            raise ValueError("photon numbers must be non-negative")

    @property
    def n_s(self):
        """Signal-photon bookkeeping value n(1 + 2 n_r) + n_r.

        Enters the coherent-probe comparison and the closed forms.
        """
        return self.n * (1.0 + 2.0 * self.n_r) + self.n_r


def thermal_ratio(beta_omega1, delta_rel):
    """Occupation ratio N_1/N_2 for frequencies omega and omega(1 + delta_rel).

    Returns (exact, first_order) with the first-order value 1 - delta_rel.
    """
    if beta_omega1 <= 0.0:
        raise ValueError("beta * omega must be positive")
    exact = math.expm1(beta_omega1) / math.expm1(beta_omega1 * (1.0 + delta_rel))
    return exact, 1.0 - delta_rel


def bifreq_probe(params):
    """Four-mode probe (bath 1, signal 1, bath 2, signal 2) of _probe_terms."""
    s, c, t = _probe_terms(params)
    if not math.isfinite(c):  # 2 n_r (1 + 2 n_r) overflows from n_r = 6.7e153
        raise OverflowError("the probe's C overflows at n_s = n_r = %g, n = %g" % (params.n_r, params.n))
    s = physical_diagonal(s, s, c)[0]  # S rounded up until S^2 - C^2 >= 1
    sigma = np.diag([t, t, s, s, t, t, s, s])
    sigma[2, 6] = sigma[6, 2] = c
    sigma[3, 7] = sigma[7, 3] = -c
    return GaussianState(np.zeros(8), sigma)


def _probe_terms(params):
    """The probe's signal variance S and correlation C, and the bath's T."""
    scale = 1.0 + 2.0 * params.n
    s = scale * (1.0 + 4.0 * params.n_r)
    c = 2.0 * scale * sqrt(2.0 * params.n_r * (1.0 + 2.0 * params.n_r))
    return s, c, 1.0 + 2.0 * params.n_th


def received_params(params):
    """Standard-form triple of the received state, elementwise: alpha =
    eta1 S + (1 - eta1) T, beta = eta2 S + (1 - eta2) T and gamma =
    sqrt(eta1 eta2) C, with S, C and T as in received_family."""
    s, c, t = _probe_terms(params)
    eta1, eta2 = params.eta1, params.eta1 + params.lam
    return (eta1 * s + (1.0 - eta1) * t, eta2 * s + (1.0 - eta2) * t,
            sqrt(eta1 * eta2) * c)


def bifreq_received(params):
    """Received two-mode covariance matrix (received_params), validated."""
    return BipartiteCM.standard_form(*received_params(params))


def received_family(params):
    """Quantum received state as a Gaussian family in the difference lambda.

    With eta2 = eta1 + lambda, only mode 2 depends on lambda: of the
    received_params triple, dbeta = S - T and dgamma = sqrt(eta1 / eta2) C / 2,
    where S = (1 + 2n)(1 + 4 n_r), C = 2 (1 + 2n) sqrt(2 n_r (1 + 2 n_r))
    are the probe's signal variance and correlation and T = 1 + 2 n_th.
    """
    eta1, eta2 = params.eta1, params.eta1 + params.lam
    s, c, t = _probe_terms(params)
    # d sqrt(eta1 eta2) C / d eta2: zero without correlations, unbounded at eta2 = 0
    if any_true((eta2 == 0.0) & (eta1 * c > 0.0)):
        raise ValueError("the quantum-probe QFI diverges at eta1 + lam = 0")
    d_eps = 0.5 * c * sqrt(eta1 / where(eta2 > 0.0, eta2, 1.0))
    return GaussianFamily(*received_params(params), 0.0, s - t, d_eps,
                          (0.0, 0.0, 0.0, 0.0), params.lam)


def h_q_bifreq(params):
    """Quantum-probe QFI at the two-sided limit lambda -> 0, elementwise."""
    return gaussian_qfi(received_family(params))


def classical_received_family(params):
    """Coherent-pair received state as a Gaussian family in lambda: mode i
    has variance 1 + 2 n_th (1 - eta_i) and displacement
    (sqrt(2 eta_i n_s), 0), with eta2 = eta1 + lambda."""
    eta1, lam, n_th = params.eta1, params.lam, params.n_th
    eta2 = eta1 + lam
    alpha = sqrt(params.n_s)
    if any_true((eta2 == 0.0) & (alpha > 0.0)):
        raise ValueError("the coherent-probe QFI diverges at eta1 + lam = 0")
    dx2 = alpha / sqrt(where(eta2 > 0.0, 2.0 * eta2, 1.0))
    return GaussianFamily(1.0 + 2.0 * n_th * (1.0 - eta1), 1.0 + 2.0 * n_th * (1.0 - eta2),
                          0.0, 0.0, -2.0 * n_th, 0.0, (0.0, 0.0, dx2, 0.0), lam)


def h_c_bifreq(params):
    """Coherent-probe QFI at lambda -> 0, closed form, elementwise:
    n_th / (tau1 (1 + n_th tau1)) + n_s / (eta1 (1 + 2 n_th tau1)) with
    tau1 = 1 - eta1.

    The thermal term vanishes in the n_th -> 0 limit and diverges at
    eta1 = 1 when n_th > 0 (ValueError).
    """
    eta1, n_th = params.eta1, params.n_th
    if any_true(eta1 <= 0.0):
        raise ValueError("eta1 must be positive for the coherent probe")
    tau1 = 1.0 - eta1
    if any_true((n_th > 0.0) & (tau1 == 0.0)):
        raise ValueError("the coherent-probe QFI diverges at eta1 = 1 "
                         "with thermal noise (n_th > 0)")
    # without thermal noise the numerator is 0: divide by 1, not by tau1 = 0
    thermal_term = n_th / where(n_th > 0.0, tau1 * (1.0 + n_th * tau1), 1.0)
    return thermal_term + params.n_s / (eta1 * (1.0 + 2.0 * n_th * tau1))


def ratio(params):
    """Quantum enhancement H_Q / H_C at the operating point."""
    return h_q_bifreq(params) / h_c_bifreq(params)


def high_reflectivity_ratio(n_s, n_th):
    """Limit of H_Q / H_C as eta1 -> 1 (finite even when both QFIs diverge)."""
    num = (n_s ** 2 * (8.0 * n_th * (n_th + 1.0) + 4.0)
           + 4.0 * n_s * n_th ** 2 + n_th ** 2)
    return num / (n_th * (n_s * (4.0 * n_th + 2.0) + n_th))


def high_noise_ratio(n_s):
    """High-reflectivity, high-noise limit 1 + 8 N_S^2 / (4 N_S + 1)."""
    return 1.0 + 8.0 * n_s ** 2 / (4.0 * n_s + 1.0)


# -- optimal observable --------------------------------------------------

@dataclass
class ObservableCoeffs:
    """O = l11 n_1 + l22 n_2 + l12 (a1+ a2+ + a1 a2) + l0."""
    l11: float
    l22: float
    l12: float
    l0: float


def optimal_coeffs(params):
    """Coefficients of the optimal observable lambda0 + SLD / H of the quantum
    received family at the operating point, elementwise, for any input thermal
    photons n >= 0. With (p_1, p_2, q) of estimation.sld_standard_form,
    x_i^2 + p_i^2 = 2 n_i + 1 and x_1 x_2 - p_1 p_2 = a1+ a2+ + a1 a2 give
    (l11, l22, l12) = 2 (p_1, p_2, q) / H; l0 makes <O> = lambda0, with
    <n_1> = (alpha - 1) / 2, <n_2> = (beta - 1) / 2 and <a1 a2> = gamma / 2.
    Raises ValueError where H = 0, and the errors of sld_standard_form.
    """
    family = received_family(params)
    p1, p2, q, h = sld_standard_form(family)
    if any_true(h == 0.0):
        raise ValueError("the QFI vanishes: no optimal observable")
    l11, l22, l12 = 2.0 * p1 / h, 2.0 * p2 / h, 2.0 * q / h
    l0 = family.lambda0 - (l11 * (family.alpha - 1.0) / 2.0
                           + l22 * (family.beta - 1.0) / 2.0 + l12 * family.gamma)
    return ObservableCoeffs(l11, l22, l12, l0)


def variance_formula(n_s, l12):
    """2 N_S^2 L12 (1 + N_S), with L12 of optimal_coeffs at N_S.

    The product of this expression with the QFI defines the saturation
    contour of the Cramer-Rao bound at M = 1. Note the operator variance
    of the exact optimal observable equals 1/H identically; this is the
    separate quantity the contour is drawn from.
    """
    return 2.0 * n_s ** 2 * l12 * (1.0 + n_s)


def qcrb_gap(eta1, n_s, n_th):
    """var(O_Q) * H_Q - 1; a root in n_th certifies qCRB saturation at M = 1."""
    params = BifreqParams(eta1, 0.0, n_r=n_s, n=0.0, n_th=n_th)
    return (variance_formula(params.n_s, optimal_coeffs(params).l12)
            * h_q_bifreq(params) - 1.0)


def qcrb_saturating_noise(eta1, n_s):
    """Solve qcrb_gap = 0 in n_th, bracketed on [1e-3, 1e4]: (n_th, bracket)."""
    grid = log_grid(1e-3, 1e4, 40)
    vals = qcrb_gap(eta1, n_s, grid)  # one array call brackets the root
    cells = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    if not cells.any():
        raise ValueError("no sign change of the qCRB gap in the scanned range")
    i = np.argmax(cells)  # the first cell that crosses
    if vals[i] == 0.0:
        return grid[i], (grid[i], grid[i])
    root = anderson_bjorck(lambda x: qcrb_gap(eta1, n_s, x), grid[i],
                           grid[i + 1], vals[i], vals[i + 1], rtol=1e-10)
    return root, (grid[i], grid[i + 1])


# -- mode synthesis network ----------------------------------------------

def jpa_synthesis(mu):
    """(phi, theta, r1, r2, theta1, theta2, phi_shift) solving u1 = i mu and
    -v2 = i in closed form: theta = r2 = theta1 = theta2 = 0 and phi_shift =
    -pi/2 leave cos(phi) cosh(r1) = mu and sin(phi) sinh(r1) = 1, and
    eliminating phi leaves s^2 - mu^2 s - 1 = 0 for s = sinh^2(r1)."""
    if mu < 1.0:
        raise ValueError("mu must be at least 1")
    r1 = math.asinh(math.sqrt(0.5 * (mu ** 2 + math.hypot(mu ** 2, 2.0))))
    phi = math.atan2(1.0 / math.sinh(r1), mu / math.cosh(r1))
    return phi, 0.0, r1, 0.0, 0.0, 0.0, -math.pi / 2.0
