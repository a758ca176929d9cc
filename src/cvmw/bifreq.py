"""Bi-frequency illumination: estimating the reflectivity difference of a
target probed at two nearby frequencies.

The probe is either a two-mode squeezed thermal state (quantum strategy)
or a pair of coherent beams with the same per-mode photon number. Both
received states are two-mode standard-form states, affine in
eta2 = eta1 + lambda and sqrt(eta2), so their jets in the difference
parameter are closed forms. The quantum-probe QFI at lambda -> 0 is the
exact Gaussian QFI of that jet; the coherent-probe QFI and the
high-reflectivity / high-noise enhancement ratios have closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .core import GaussianState, SIGMA_Z, all_true, any_true
from .entanglement import BipartiteCM
from .estimation import GaussianFamily, gaussian_qfi
from .teleport import illinois


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
    exact = np.expm1(beta_omega1) / np.expm1(beta_omega1 * (1.0 + delta_rel))
    return exact, 1.0 - delta_rel


def bifreq_probe(params):
    """Four-mode probe (bath 1, signal 1, bath 2, signal 2)."""
    scale = 1.0 + 2.0 * params.n
    ch, sh = np.cosh, np.sinh
    r = np.arcsinh(np.sqrt(2.0 * params.n_r))
    sigma = np.zeros((8, 8))
    th = (1.0 + 2.0 * params.n_th) * np.eye(2)
    sig = scale * ch(2.0 * r) * np.eye(2)
    corr = scale * sh(2.0 * r) * SIGMA_Z
    sigma[0:2, 0:2] = th
    sigma[2:4, 2:4] = sig
    sigma[4:6, 4:6] = th
    sigma[6:8, 6:8] = sig
    sigma[2:4, 6:8] = corr
    sigma[6:8, 2:4] = corr
    return GaussianState(np.zeros(8), sigma)


def _probe_terms(params):
    """The probe's signal variance S and correlation C, and the bath's T."""
    scale = 1.0 + 2.0 * params.n
    s = scale * (1.0 + 4.0 * params.n_r)
    c = 2.0 * scale * np.sqrt(2.0 * params.n_r * (1.0 + 2.0 * params.n_r))
    return s, c, 1.0 + 2.0 * params.n_th


def received_params(params):
    """Standard-form triple of the received state, elementwise: alpha =
    eta1 S + (1 - eta1) T, beta = eta2 S + (1 - eta2) T and gamma =
    sqrt(eta1 eta2) C, with S, C and T as in received_family."""
    s, c, t = _probe_terms(params)
    eta1, eta2 = params.eta1, params.eta1 + params.lam
    return (eta1 * s + (1.0 - eta1) * t, eta2 * s + (1.0 - eta2) * t,
            np.sqrt(eta1 * eta2) * c)


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
    d_eps = 0.5 * c * np.sqrt(eta1 / np.where(eta2 > 0.0, eta2, 1.0))
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
    alpha = np.sqrt(params.n_s)
    if any_true((eta2 == 0.0) & (alpha > 0.0)):
        raise ValueError("the coherent-probe QFI diverges at eta1 + lam = 0")
    dx2 = alpha / np.sqrt(np.where(eta2 > 0.0, 2.0 * eta2, 1.0))
    return GaussianFamily(1.0 + 2.0 * n_th * (1.0 - eta1), 1.0 + 2.0 * n_th * (1.0 - eta2),
                          0.0, 0.0, -2.0 * n_th, 0.0, (0.0, 0.0, dx2, 0.0), lam)


def h_c_bifreq(params):
    """Coherent-probe QFI at lambda -> 0, closed form, elementwise.

    The thermal term vanishes in the n_th -> 0 limit and diverges at
    eta1 = 1 when n_th > 0 (ValueError).
    """
    eta1, n_th = params.eta1, params.n_th
    if any_true(eta1 <= 0.0):
        raise ValueError("eta1 must be positive for the coherent probe")
    tau1 = 1.0 - eta1
    dd = 1.0 + 2.0 * n_th * tau1
    if any_true((n_th > 0.0) & (dd ** 4 == 1.0)):
        raise ValueError("the coherent-probe QFI diverges at eta1 = 1 "
                         "with thermal noise (n_th > 0)")
    # without thermal noise the numerator is 0 and dd = 1: divide by 1 instead
    thermal_term = (4.0 * n_th ** 2 * (dd ** 2 + 1.0)
                    / np.where(n_th > 0.0, dd ** 4 - 1.0, 1.0))
    return thermal_term + params.n_s / (eta1 * dd)


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


def _helpers(eta1, n_s, n_th):
    a = 8.0 * (eta1 - 1.0) * eta1 * n_s ** 3 * (2.0 * n_th + 1.0)
    b = 4.0 * n_s ** 2 * (-eta1 + (eta1 + 3.0 * eta1 * n_th) ** 2
                          - eta1 * n_th * (10.0 * n_th + 7.0)
                          + 3.0 * n_th * (n_th + 1.0) + 1.0)
    c = 2.0 * n_s * n_th * (-eta1 + n_th * (eta1 * (3.0 * eta1 - 8.0)
                            + 4.0 * (eta1 - 1.0) * (2.0 * eta1 - 1.0) * n_th
                            + 3.0) + 1.0)
    d = n_th ** 2 * (2.0 * (eta1 - 1.0) * n_th
                     * ((eta1 - 1.0) * n_th - 1.0) + 1.0)
    return a, b, c, d


def optimal_coeffs(params):
    """Coefficients of the optimal observable at lambda -> 0, closed form,
    elementwise over arrays.

    l0 is fixed by the unbiasedness condition <O> = 0 at the operating
    point (the observable carries lambda * identity on top of SLD / H).
    """
    eta1, n_s, n_th = params.eta1, params.n_s, params.n_th
    if any_true((n_s <= 0.0) | (n_th <= 0.0)):
        raise ValueError("closed-form coefficients need n_s > 0 and n_th > 0")
    a, b, c, d = _helpers(eta1, n_s, n_th)
    den = a - b + c - d
    if any_true(abs(den) < 1e-30):
        raise ValueError("singular parameters: coefficient denominator vanishes")
    l11 = -2.0 * eta1 * n_s * (2.0 * n_s + 1.0) * (2.0 * n_th + 1.0) / (-den)
    l22 = (4.0 * eta1 * (2.0 * eta1 - 1.0) * n_s ** 2 * (2.0 * n_th + 1.0)
           + 2.0 * n_s * (eta1 - 2.0 * n_th * ((eta1 - 3.0) * eta1
                          + (eta1 - 1.0) * (3.0 * eta1 - 1.0) * n_th + 1.0)
                          - 1.0)
           + n_th * (2.0 * (eta1 - 1.0) * n_th
                     * ((eta1 - 1.0) * n_th - 1.0) + 1.0)) / den
    l12 = -np.sqrt(2.0) * np.sqrt(n_s * (2.0 * n_s + 1.0)) * (
        eta1 ** 2 * (n_s * (4.0 * n_th + 2.0) - n_th ** 2)
        + n_th * (n_th + 1.0)) / den
    # unbiasedness at lambda = 0 pins the constant: the received moments are
    # <n_1> = <n_2> = (alpha - 1) / 2 and <a1 a2> = gamma / 2
    alpha, _, gamma = received_params(BifreqParams(eta1, 0.0, params.n_r, params.n, n_th))
    occ = (alpha - 1.0) / 2.0
    l0 = -(l11 * occ + l22 * occ + l12 * gamma)
    return ObservableCoeffs(l11, l22, l12, l0)


def coeffs_high_reflectivity(n_s, n_th):
    """eta1 -> 1 limits of the observable coefficients.

    l11, l22 and l12 are the exact limits of the general expressions (the
    cross coefficient carries sqrt(2), pinned by the noiseless limit). The
    constant l0 is the conventional value for this limit slice; the exact
    constant at finite reflectivity is fixed by unbiasedness instead (see
    optimal_coeffs).
    """
    den = (n_s ** 2 * (8.0 * n_th * (n_th + 1.0) + 4.0)
           + 4.0 * n_s * n_th ** 2 + n_th ** 2)
    l11 = -2.0 * n_s * (2.0 * n_s + 1.0) * (2.0 * n_th + 1.0) / den
    l22 = -(4.0 * n_s * (2.0 * n_s * n_th + n_s + n_th) + n_th) / den
    l12 = (np.sqrt(2.0) * np.sqrt(n_s * (2.0 * n_s + 1.0))
           * (n_s * (4.0 * n_th + 2.0) + n_th) / den)
    l0 = (-2.0 * n_s * (n_s * (8.0 * n_th + 4.0) + 6.0 * n_th + 1.0)
          - 3.0 * n_th) / (2.0 * den)
    return ObservableCoeffs(l11, l22, l12, l0)


def coeffs_noiseless(n_s):
    """eta1 -> 1, n_th -> 0 limit: photon counting on -i(a2+ - mu a1)."""
    mu2 = 1.0 + 1.0 / (2.0 * n_s)
    nu = 1.0 + 1.0 / (4.0 * n_s)
    return ObservableCoeffs(-mu2, -1.0, np.sqrt(mu2), -nu)


def variance_formula(params):
    """2 N_S^2 L12 (1 + N_S) with the closed-form L12.

    The product of this expression with the QFI defines the saturation
    contour of the Cramer-Rao bound at M = 1. Note the operator variance
    of the exact optimal observable equals 1/H identically; this is the
    separate quantity the contour is drawn from.
    """
    coeffs = optimal_coeffs(params)
    n_s = params.n_s
    return 2.0 * n_s ** 2 * coeffs.l12 * (1.0 + n_s)


def qcrb_gap(eta1, n_s, n_th):
    """var(O_Q) * H_Q - 1; a root in n_th certifies qCRB saturation at M = 1."""
    params = BifreqParams(eta1, 0.0, n_r=n_s, n=0.0, n_th=n_th)
    return variance_formula(params) * h_q_bifreq(params) - 1.0


def qcrb_saturating_noise(eta1, n_s, lo=1e-3, hi=1e4):
    """Bracket and solve qcrb_gap = 0 in n_th; returns (n_th, bracket)."""
    grid = np.geomspace(lo, hi, 40)
    vals = qcrb_gap(eta1, n_s, grid)  # one array call brackets the root
    cells = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    if not cells.any():
        raise ValueError("no sign change of the qCRB gap in the scanned range")
    i = np.argmax(cells)  # the first cell that crosses
    if vals[i] == 0.0:
        return grid[i], (grid[i], grid[i])
    root = illinois(lambda x: qcrb_gap(eta1, n_s, x), grid[i], grid[i + 1],
                    vals[i], vals[i + 1], xtol=1e-10 * grid[i])
    return root, (grid[i], grid[i + 1])


# -- mode synthesis network ----------------------------------------------

def jpa_forward(phi, theta, r1, r2, theta1, theta2, phi_shift):
    """Coefficients (u1, u2, v1, v2) of the synthesized mode.

    Network: beam splitter (angle phi), two single-mode squeezers
    (r_i, theta_i), second beam splitter (angle theta), phase shift on the
    first output; b = u1 a1 + u2 a2 + v1 a1+ + v2 a2+.
    """
    ph = np.exp(-1j * phi_shift)
    e1, e2 = np.exp(1j * theta1), np.exp(1j * theta2)
    u1 = ph * (np.cos(theta) * np.cos(phi) * np.cosh(r1)
               - np.sin(theta) * np.sin(phi) * np.cosh(r2))
    u2 = ph * (np.cos(theta) * np.sin(phi) * np.cosh(r1)
               + np.sin(theta) * np.cos(phi) * np.cosh(r2))
    v1 = ph * (-e1 * np.cos(theta) * np.cos(phi) * np.sinh(r1)
               + e2 * np.sin(theta) * np.sin(phi) * np.sinh(r2))
    v2 = ph * (-e1 * np.cos(theta) * np.sin(phi) * np.sinh(r1)
               - e2 * np.sin(theta) * np.cos(phi) * np.sinh(r2))
    return u1, u2, v1, v2


def jpa_identification_residual(x, mu):
    """Residuals of u1 = i mu and -v2 = i for a parameter vector x."""
    u1, _, _, v2 = jpa_forward(*x)
    return np.array([u1.real, u1.imag - mu, (-v2).real, (-v2).imag - 1.0])


def jpa_synthesis(mu):
    """(phi, theta, r1, r2, theta1, theta2, phi_shift) solving u1 = i mu and
    -v2 = i in closed form: theta = r2 = theta1 = theta2 = 0 and phi_shift =
    -pi/2 leave cos(phi) cosh(r1) = mu and sin(phi) sinh(r1) = 1, and
    eliminating phi leaves s^2 - mu^2 s - 1 = 0 for s = sinh^2(r1)."""
    if mu < 1.0:
        raise ValueError("mu must be at least 1")
    r1 = np.arcsinh(np.sqrt(0.5 * (mu ** 2 + np.hypot(mu ** 2, 2.0))))
    phi = np.arctan2(1.0 / np.sinh(r1), mu / np.cosh(r1))
    return phi, 0.0, r1, 0.0, 0.0, 0.0, -np.pi / 2.0
