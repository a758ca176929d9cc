"""Open-air attenuation channels, lossy two-mode resources, reach bounds,
amplification, and free-space link budgets.

All quantities are in SI units; the attenuation density mu is in 1/m and
distances in meters. The combined antenna + environment reflectivity is
eta_eff = 1 - e^{-mu L} (1 - eta_ant).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .core import (GaussianState, SIGMA_Z, apply, beam_splitter,
                   partial_trace, thermal, tmst)
from .entanglement import BipartiteCM, pts_eigenvalues

# CODATA exact SI values
PLANCK = 6.62607015e-34       # J s
BOLTZMANN = 1.380649e-23      # J / K
LIGHT_SPEED = 299792458.0     # m / s

# attenuation-density presets at 5 GHz (1/m). The oxygen value is the
# canonical one; the water-vapor densities are calibrated so the asymmetric
# reach comes out at 450 m (average) and 400 m (maximum) for the reference
# state r = 1, n = 1e-2, N_th = 1250.
MU_OXYGEN = 1.44e-6
MU_WATER_VAPOR_AVG = 1.764424e-6
MU_WATER_VAPOR_MAX = 1.984977e-6


@dataclass
class AirChannel:
    mu: float             # attenuation density (1/m)
    L: float              # distance (m)
    n_th_env: float       # environment photons
    eta_ant: float = 0.0  # antenna reflectivity

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.L, self.n_th_env,
                                       self.eta_ant))):
            raise ValueError("channel parameters must be finite")
        if (self.mu < 0 or self.L < 0 or self.n_th_env < 0
                or not 0.0 <= self.eta_ant <= 1.0):
            raise ValueError("invalid channel parameters")


@dataclass
class LinkGeometry:
    nu: float        # carrier frequency (Hz)
    d: float         # link distance (m)
    a: float         # parabolic aperture diameter (m)
    e_a: float = 1.0  # aperture efficiency
    w0: float = 1.0   # initial spot size (m)
    a_r: float = 1.0  # receiver aperture radius (m)
    r0: float = None  # beam curvature (m); defaults to the link distance

    def __post_init__(self):
        if self.r0 is None:
            self.r0 = self.d
        if min(self.nu, self.d, self.a, self.e_a, self.w0, self.a_r) <= 0:
            raise ValueError("geometry parameters must be positive")
        if self.e_a > 1.0:
            raise ValueError("aperture efficiency cannot exceed 1")

    @property
    def wavelength(self):
        return LIGHT_SPEED / self.nu


def bose_einstein(nu, t):
    """Mean thermal photon number 1/(e^{h nu / k T} - 1)."""
    if nu <= 0 or t <= 0:
        raise ValueError("frequency and temperature must be positive")
    return 1.0 / np.expm1(PLANCK * nu / (BOLTZMANN * t))


def eta_env(ch):
    """Environment reflectivity 1 - e^{-mu L} of the attenuation channel."""
    return -np.expm1(-ch.mu * ch.L)


def eta_eff(ch):
    """Combined antenna + environment reflectivity."""
    return 1.0 - np.exp(-ch.mu * ch.L) * (1.0 - ch.eta_ant)


def eta_env_inhomogeneous(mu_fn, n_fn, length):
    """(eta_env, n_th_eff) for position-dependent attenuation and occupation.

    eta = 1 - exp(-int mu) and the effective occupation is the
    attenuation-weighted average of n(x); adaptive quadrature at relative
    tolerance 1e-10.
    """
    total_mu, err = quad(mu_fn, 0.0, length, epsrel=1e-10, limit=200)
    if total_mu == 0.0:
        return 0.0, n_fn(0.0)
    eta = -np.expm1(-total_mu)

    def tail(x):
        t, _ = quad(mu_fn, x, length, epsrel=1e-10, limit=200)
        return t

    def integrand(x):
        return mu_fn(x) * n_fn(x) * np.exp(-tail(x))

    weighted, err2 = quad(integrand, 0.0, length, epsrel=1e-10, limit=200)
    if max(abs(err), abs(err2)) > 1e-6 * max(1.0, abs(weighted)):
        raise RuntimeError("quadrature failed to converge")
    return eta, weighted / eta


def lossy_tmst(ch, r, n, geometry="asym"):
    """Two-mode squeezed thermal state distributed through the channel.

    geometry="asym": one mode stays at the source, the other travels the
    full distance (lossy block first). geometry="sym": the source sits
    midway and both modes travel L/2.
    """
    scale = 1.0 + 2.0 * n
    ch2r, sh2r = np.cosh(2.0 * r), np.sinh(2.0 * r)
    if geometry == "asym":
        eta = eta_eff(ch)
        alpha = (1.0 + 2.0 * ch.n_th_env) * eta + scale * (1.0 - eta) * ch2r
        beta = scale * ch2r
        gamma = scale * np.sqrt(1.0 - eta) * sh2r
    elif geometry == "sym":
        half = AirChannel(ch.mu, ch.L / 2.0, ch.n_th_env, ch.eta_ant)
        eta = eta_eff(half)
        alpha = (1.0 + 2.0 * ch.n_th_env) * eta + scale * (1.0 - eta) * ch2r
        beta = alpha
        gamma = scale * (1.0 - eta) * sh2r
    else:
        raise ValueError("geometry must be 'asym' or 'sym'")
    return BipartiteCM(alpha * np.eye(2), beta * np.eye(2), gamma * SIGMA_Z,
                       check=False)


def lossy_tmst_constructive(ch, r, n, geometry="asym"):
    """Same state assembled from core operations (beam splitter + thermal).

    Order of modes matches lossy_tmst: the lossy mode(s) come first in the
    asymmetric case.
    """
    if geometry == "asym":
        eta = eta_eff(ch)
        state = tmst(r, n)
        env = thermal(1, ch.n_th_env)
        sigma = np.zeros((6, 6))
        sigma[:4, :4] = state.sigma
        sigma[4:, 4:] = env.sigma
        big = GaussianState(np.zeros(6), sigma, check=False)
        # transmissivity 1 - eta on (mode 0, environment)
        mixed = apply(big, beam_splitter(1.0 - eta), on=(0, 2))
        return BipartiteCM.from_state(partial_trace(mixed, keep=(0, 1)))
    if geometry == "sym":
        half = AirChannel(ch.mu, ch.L / 2.0, ch.n_th_env, ch.eta_ant)
        eta = eta_eff(half)
        state = tmst(r, n)
        sigma = np.zeros((8, 8))
        sigma[:4, :4] = state.sigma
        sigma[4:6, 4:6] = thermal(1, ch.n_th_env).sigma
        sigma[6:8, 6:8] = thermal(1, ch.n_th_env).sigma
        big = GaussianState(np.zeros(8), sigma, check=False)
        mixed = apply(big, beam_splitter(1.0 - eta), on=(0, 2))
        mixed = apply(mixed, beam_splitter(1.0 - eta), on=(1, 3))
        return BipartiteCM.from_state(partial_trace(mixed, keep=(0, 1)))
    raise ValueError("geometry must be 'asym' or 'sym'")


def eta_max(r, n, n_th):
    """Reflectivity bound below which the asymmetric state stays entangled.

    Requires n < e^{-r} sinh r and r > 0; returns 0 when the source state
    is never entangled.
    """
    if r <= 0.0 or n >= np.exp(-r) * np.sinh(r):
        return 0.0
    denom = 1.0 + 2.0 * n * (1.0 + n) / (1.0 - (1.0 + 2.0 * n) * np.cosh(2.0 * r))
    return 1.0 / (1.0 + n_th / denom)


def l_max(ch, r, n, geometry="asym"):
    """Maximum distance (m) before the distributed entanglement vanishes."""
    if geometry == "asym":
        bound = eta_max(r, n, ch.n_th_env)
        if bound <= ch.eta_ant:
            return 0.0
        # eta_eff(L) = bound: antenna reflectivity consumes part of the budget
        return -np.log((1.0 - bound) / (1.0 - ch.eta_ant)) / ch.mu

    def nu_minus_gap(length):
        cm = lossy_tmst(AirChannel(ch.mu, length, ch.n_th_env, ch.eta_ant),
                        r, n, geometry)
        return pts_eigenvalues(cm)[0] - 1.0

    if nu_minus_gap(0.0) >= 0.0:
        return 0.0
    hi = 10.0
    while nu_minus_gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("no entanglement boundary found")
    return brentq(nu_minus_gap, 0.0, hi, xtol=0.01)


def hemt_gain(n_h, n):
    """Gain of an amplifier that lifts n input photons to n_h output photons."""
    return n_h / n


def hemt_amplify(cm, g, n_h, modes=(0,)):
    """Phase-insensitive amplification of the selected modes of a two-mode CM.

    Per amplified mode: Sigma -> g Sigma + (g - 1)(1 + 2 n_H) I; the
    cross-correlations pick up sqrt(g) per amplified side.
    """
    if g < 1.0:
        raise ValueError("amplifier gain must be at least 1")
    scale = np.eye(4)
    add = np.zeros((4, 4))
    for m in modes:
        if m not in (0, 1):
            raise ValueError("mode index out of range")
        sl = slice(2 * m, 2 * m + 2)
        scale[sl, sl] = np.sqrt(g) * np.eye(2)
        add[sl, sl] = (g - 1.0) * (1.0 + 2.0 * n_h) * np.eye(2)
    full = scale @ cm.matrix @ scale.T + add
    return BipartiteCM.from_matrix(full, check=False)


def fspl(nu, d):
    """Free-space path loss: ((4 pi d nu / c)^2, value in dB)."""
    if nu <= 0 or d <= 0:
        raise ValueError("frequency and distance must be positive")
    amp = 4.0 * np.pi * d * nu / LIGHT_SPEED
    return amp ** 2, 20.0 * np.log10(amp)


def directivity(geom):
    """Parabolic-antenna directivity (pi a / lambda)^2 e_a."""
    return (np.pi * geom.a / geom.wavelength) ** 2 * geom.e_a


def friis(geom):
    """Far-field power ratio D_e D_r / L_FSPL for identical antennas."""
    loss, _ = fspl(geom.nu, geom.d)
    return directivity(geom) ** 2 / loss


def tau_path(geom):
    """Parabolic path transmissivity (pi a^2 e_a / (4 d lambda))^2."""
    return (np.pi * geom.a ** 2 * geom.e_a
            / (4.0 * geom.d * geom.wavelength)) ** 2


def spot_size(geom, d=None):
    """Beam spot size at distance d given curvature r0 and waist w0."""
    d = geom.d if d is None else d
    rayleigh = np.pi * geom.w0 ** 2 / (2.0 * geom.wavelength)
    return (geom.w0 / np.sqrt(2.0)) * np.sqrt(
        (1.0 - d / geom.r0) ** 2 + (d / rayleigh) ** 2)


def tau_diffraction(geom, d=None):
    """Diffraction-induced transmissivity 1 - e^{-2 a_R^2 / w(d)^2}."""
    w = spot_size(geom, d)
    return -np.expm1(-2.0 * geom.a_r ** 2 / w ** 2)


def eta_threshold_asym(n_th):
    """Reflectivity below which the asymmetric state stays entangled (n ~ 0)."""
    return 1.0 / (1.0 + n_th)


def eta_threshold_sym(n_th, r):
    """Same threshold for the symmetric state at squeezing r."""
    return 1.0 / (1.0 + n_th * (1.0 + 1.0 / np.tanh(r)))


def aperture_product_threshold(wavelength, eta_lim, d):
    """Minimum a_R * w0 product preserving entanglement at distance d.

    Entanglement survives the diffraction channel when
    a_R w0 / d > (lambda / pi) sqrt(-ln eta_lim).
    """
    if not 0.0 < eta_lim < 1.0:
        raise ValueError("eta_lim must lie in (0, 1)")
    return d * (wavelength / np.pi) * np.sqrt(-np.log(eta_lim))


# -- parameter profiles -------------------------------------------------

TABLE1 = {
    "mu": MU_OXYGEN,      # 1/m
    "temperature": 300.0,  # K
    "n_th": 1250.0,
    "r": 1.0,
    "n": 1e-2,
    "tau": 0.95,
    "eta_ant": 0.0,
    "nu": 5e9,             # Hz
    "inv_gain": 0.008,
}

PRESETS = {"table1": TABLE1}


def parse_profile(text):
    """Parse a sectioned key = value profile into a flat dict.

    Sections ([name]) only group keys for readability; values are floats.
    Lines starting with '#' are comments.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = float(value)
    return out


def load_profile(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())
