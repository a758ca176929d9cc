"""General routes to library quantities: symplectic maps and the partial
trace on full covariance matrices, the general-matrix entanglement swap,
the heuristic characteristic function and re-Gaussification of a
BipartiteCM, the Friis link budget, and the bi-frequency observable limits
and mode-synthesis network. The library computes the same numbers from
standard-form closed forms; these are the second derivations its tests
compare against.
"""

import numpy as np

from cvmw.channel import LIGHT_SPEED
from cvmw.core import GaussianState, SIGMA_Z, _check_modes, _quad_indices, omega
from cvmw.bifreq import ObservableCoeffs
from cvmw.distill import ps2_heuristic
from cvmw.entanglement import BipartiteCM, cm_validity


# -- symplectic maps and reduced states -------------------------------------

def rotation(theta):
    """Single-mode phase-space rotation."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def single_mode_squeezer(r, theta=0.0):
    """Single-mode squeezer; on vacuum gives Sigma = diag(e^-2r, e^2r) at theta = 0."""
    ch, sh = np.cosh(r), np.sinh(r)
    c, s = np.cos(theta), np.sin(theta)
    return ch * np.eye(2) - sh * np.array([[c, s], [s, -c]])


def two_mode_squeezer(r):
    """Two-mode squeezer; on two vacua produces the two-mode squeezed vacuum."""
    ch, sh = np.cosh(r), np.sinh(r)
    i2 = np.eye(2)
    top = np.hstack([ch * i2, sh * SIGMA_Z])
    bot = np.hstack([sh * SIGMA_Z, ch * i2])
    return np.vstack([top, bot])


def partial_trace(state, keep):
    """Reduced state on the kept modes (rows/columns outside are removed)."""
    modes = _check_modes(keep, state.n_modes)
    idx = _quad_indices(modes)
    return GaussianState(state.d[idx], state.sigma[np.ix_(idx, idx)], check=False)


def characteristic_function(state, r_point):
    """Gaussian characteristic function evaluated at a phase-space point."""
    r = np.asarray(r_point, dtype=float).reshape(-1)
    if r.size != 2 * state.n_modes:
        raise ValueError("phase-space point has wrong length")
    w = omega(state.n_modes)
    quad = r @ w @ state.sigma @ w.T @ r
    phase = r @ w @ state.d
    return np.exp(-0.25 * quad) * np.exp(-1j * phase)


# -- swapping, subtraction and re-Gaussification on full matrices ----------

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


def char_fn_heuristic(cm, alpha_pt, beta_pt, machinery=None):
    """Characteristic function after heuristic photon subtraction; at the
    subtracted Sigma-tilde of distill.ps2_gaussian, with its machinery, that
    of the probabilistically 2PS state."""
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


# -- free-space link budget -------------------------------------------------

def directivity(geom):
    """Parabolic-antenna directivity (pi a / lambda)^2 e_a."""
    return (np.pi * geom.a / geom.wavelength) ** 2 * geom.e_a


def friis(geom):
    """Far-field power ratio D_e D_r / L_FSPL for identical antennas, with
    the free-space path loss L_FSPL = (4 pi d nu / c)^2."""
    loss = (4.0 * np.pi * geom.d * geom.nu / LIGHT_SPEED) ** 2
    return directivity(geom) ** 2 / loss


# -- bi-frequency observable limits and mode synthesis ----------------------

def coeffs_high_reflectivity(n_s, n_th):
    """eta1 -> 1 limits of the observable coefficients at n = 0.

    l11, l22 and l12 are the exact limits of the SLD coefficients of
    bifreq.optimal_coeffs at n = 0, where the received state depends on n_r
    alone (the cross coefficient carries sqrt(2), pinned by the noiseless
    limit). The constant l0 is the conventional value for this limit slice;
    the exact constant at finite reflectivity is fixed by unbiasedness
    instead (see bifreq.optimal_coeffs).
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
