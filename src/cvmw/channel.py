"""Open-air attenuation channels, lossy two-mode resources, reach bounds,
amplification, and free-space link budgets.

All quantities are in SI units; the attenuation density mu is in 1/m and
distances in meters. The combined antenna + environment reflectivity is
eta_eff = 1 - e^{-mu L} (1 - eta_ant).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .core import any_true
from .entanglement import BipartiteCM, nu_minus_standard

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
    L: float              # distance (m); an array of distances for a sweep
    n_th_env: float       # environment photons
    eta_ant: float = 0.0  # antenna reflectivity

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.n_th_env, self.eta_ant))):
            raise ValueError("channel parameters must be finite")
        check_lengths(self.L)
        if self.mu < 0 or self.n_th_env < 0 or not 0.0 <= self.eta_ant <= 1.0:
            raise ValueError("invalid channel parameters")


def check_lengths(length):
    """AirChannel's check of its distances."""
    if any_true(~np.isfinite(length)):
        raise ValueError("channel parameters must be finite")
    if any_true(length < 0):
        raise ValueError("invalid channel parameters")


@dataclass
class LinkGeometry:
    """Free-space link; the fields may be arrays that broadcast."""
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
        if any(any_true(v <= 0) for v in (self.nu, self.d, self.a, self.e_a,
                                          self.w0, self.a_r)):
            raise ValueError("geometry parameters must be positive")
        if any_true(self.e_a > 1.0):
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


def _on_points(fn, x):
    """fn at the points x: one array call (a constant broadcasts), else one
    call per point."""
    try:
        return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
    except (TypeError, ValueError):  # say, an `if` on the argument
        return np.array([fn(v) for v in x.tolist()])


# one rule per order, shared by every call, so never written into
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def eta_env_inhomogeneous(mu_fn, n_fn, length):
    """(eta, n_eff) for attenuation mu(x) and occupation n(x) along the path.

    eta = 1 - exp(-int_0^L mu) and n_eff = int_0^L mu n exp(-int_x^L mu) dx / eta.
    Gauss-Legendre rules of 64, 128, ..., 1024 nodes; the tails are one
    cumulative sum of 8-node rules over the gaps between the nodes and L.
    Returns the first order that agrees with the one before to 1e-10 relative.
    """
    previous = None
    gap_t, gap_w = _leggauss(8)
    for order in (64, 128, 256, 512, 1024):
        t, w = _leggauss(order)
        x = 0.5 * length * (t + 1.0)
        half = 0.5 * np.diff(x, append=length)
        gaps = (x + half)[:, None] + half[:, None] * gap_t
        mu, gap_mu = np.split(_on_points(mu_fn, np.append(x, gaps)), [order])
        tails = np.cumsum((half * (gap_mu.reshape(gaps.shape) @ gap_w))[::-1])[::-1]
        now = 0.5 * length * np.array(
            [w @ mu, w @ (mu * _on_points(n_fn, x) * np.exp(-tails))])
        if now[0] == 0.0:
            return 0.0, n_fn(0.0)
        if previous is not None and np.all(abs(now - previous) <= 1e-10 * abs(now)):
            eta = -np.expm1(-now[0])
            return eta, now[1] / eta
        previous = now
    raise RuntimeError("quadrature failed to converge")


def lossy_tmst_params(ch, r, n, geometry="asym"):
    """Standard-form (alpha, beta, gamma) of the distributed two-mode
    squeezed thermal state, as arrays over the channel's distances.

    geometry="asym": one mode stays at the source, the other travels the
    full distance; alpha belongs to the travelling mode. geometry="sym": the
    source sits midway and both modes travel L/2.
    """
    return tmst_params(ch.mu, ch.L, ch.n_th_env, ch.eta_ant, r, n, geometry)


def tmst_params(mu, length, n_th, eta_ant, r, n, geometry):
    """lossy_tmst_params from the channel's fields, which it does not check."""
    scale = _source_scale(n)
    ch2r, sh2r = np.cosh(2.0 * r), np.sinh(2.0 * r)
    if geometry == "sym":  # one arm: eta_eff at L/2
        length = length / 2.0
    elif geometry != "asym":
        raise ValueError("geometry must be 'asym' or 'sym'")
    eta = 1.0 - np.exp(-mu * length) * (1.0 - eta_ant)
    alpha = (1.0 + 2.0 * n_th) * eta + scale * (1.0 - eta) * ch2r
    if geometry == "asym":
        return (alpha, np.full_like(alpha, scale * ch2r),
                scale * np.sqrt(1.0 - eta) * sh2r)
    return alpha, alpha, scale * (1.0 - eta) * sh2r


def lossy_tmst(ch, r, n, geometry="asym"):
    """Two-mode squeezed thermal state distributed through the channel
    (see lossy_tmst_params); the lossy block comes first."""
    return BipartiteCM.standard_form(*lossy_tmst_params(ch, r, n, geometry),
                                     check=False)


def l_max(ch, r, n, geometry="asym"):
    """Maximum distance (m) before the distributed entanglement vanishes.

    The first root of nu_minus = 1 on the standard-form polynomials
    (tmst_polys): alpha - gamma = 1 in the symmetric geometry, linear in the
    transmission, and 1 - (alpha^2 + beta^2 + 2 gamma^2) + (alpha beta -
    gamma^2)^2 = 0 in the asymmetric one, a quartic. Returns 0 when the
    source is not entangled; raises ValueError when the bound is never
    reached: mu = 0, or no thermal noise to end the entanglement.
    """
    at_source = tmst_params(ch.mu, 0.0, ch.n_th_env, ch.eta_ant, r, n, geometry)
    if nu_minus_standard(*at_source) >= 1.0:
        return 0.0
    require_attenuation(ch.mu)
    if ch.n_th_env == 0.0:
        # pure loss: nu_minus reaches 1 only where the transmission vanishes,
        # at u = 1, a double root of the asymmetric quartic
        raise ValueError(NEVER_REACHED)
    alpha, beta, gamma = tmst_polys(r, n, ch.n_th_env, ch.eta_ant, geometry)
    if geometry == "sym":
        condition = alpha - gamma - poly(1.0)
    else:
        gamma_sq = poly_mul(gamma, gamma)
        det_root = poly_mul(alpha, beta) - gamma_sq
        condition = (poly(1.0) - poly_mul(alpha, alpha) - poly_mul(beta, beta)
                     - 2.0 * gamma_sq + poly_mul(det_root, det_root))
    length = root_distance(condition, ch.mu)
    if length is None:
        raise ValueError(NEVER_REACHED)
    return length


# -- distance bounds as polynomial roots ----------------------------------
#
# Write t = t0 e^{-mu L / 2}: t = sqrt(1 - eta_eff) and t0 = sqrt(1 - eta_ant)
# for the asymmetric state, t = 1 - eta_eff of one L/2 arm and t0 = 1 - eta_ant
# for the symmetric one. The standard-form entries of lossy_tmst are then
# polynomials in t, and every Gaussian distance bound is the largest root in
# (0, t0] of a polynomial of degree at most 4. The polynomials are expanded in
# u = 1 - t / t0, which is 0 at the source, so L = -(2 / mu) ln(1 - u): in t
# itself the terms cancel to 1e-13 near t0 and the roots lose digits.

POLY_LEN = 5  # coefficients, lowest power first
NEVER_REACHED = "the bound is not reached at any distance"


def poly(*coeffs):
    """Coefficient array (lowest power first), zero-padded to POLY_LEN."""
    out = np.zeros(POLY_LEN)
    out[:len(coeffs)] = coeffs
    return out


def poly_mul(p, q):
    """Product of two coefficient arrays; its degree must stay below POLY_LEN."""
    return np.convolve(p, q)[:POLY_LEN]


def _source_scale(n):
    """1 + 2n for a source with n >= 0 thermal photons per mode."""
    if n < 0.0:
        raise ValueError("source occupation n must be non-negative")
    return 1.0 + 2.0 * n


def source_terms(r, n, n_th):
    """(a, c, e) of lossy_tmst: a = (1 + 2n) cosh 2r and c = (1 + 2n) sinh 2r
    are the source's diagonal and correlation entries, e = 1 + 2 n_th the
    environment's diagonal entry."""
    scale = _source_scale(n)
    return scale * np.cosh(2.0 * r), scale * np.sinh(2.0 * r), 1.0 + 2.0 * n_th


def tmst_polys(r, n, n_th, eta_ant, geometry):
    """(alpha, beta, gamma) of lossy_tmst as coefficient arrays in u.

    alpha = a + (e - a) eta_eff, with eta_eff = eta_ant + t0 u (sym) or
    eta_ant + t0^2 (2u - u^2) (asym); gamma = c t = c t0 (1 - u).
    """
    a, c, e = source_terms(r, n, n_th)
    at_source = a + (e - a) * eta_ant
    if geometry == "asym":
        t0 = np.sqrt(1.0 - eta_ant)
        lossy = (e - a) * t0 * t0
        return (poly(at_source, 2.0 * lossy, -lossy), poly(a),
                poly(c * t0, -c * t0))
    if geometry == "sym":
        t0 = 1.0 - eta_ant
        alpha = poly(at_source, (e - a) * t0)
        return alpha, alpha, poly(c * t0, -c * t0)
    raise ValueError("geometry must be 'asym' or 'sym'")


def require_attenuation(mu):
    """Distance bounds need mu > 0: without attenuation the state never changes."""
    if mu == 0.0:
        raise ValueError("mu = 0: without attenuation the state does not change "
                         "with distance, so no distance bound exists")


def root_distance(condition, mu):
    """Shortest distance (m) where the polynomial condition(u) vanishes.

    Takes the smallest real root u in [0, 1), the largest t in (0, t0];
    None when there is none.
    """
    roots = polyroots(condition)
    real = roots.real[(roots.imag == 0.0) & (roots.real >= 0.0) & (roots.real < 1.0)]
    if real.size == 0:
        return None
    return -2.0 / mu * math.log1p(-real.min())


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
    """Free-space path loss: ((4 pi d nu / c)^2, value in dB), elementwise."""
    if any_true((nu <= 0) | (d <= 0)):
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
    """Same threshold for the symmetric state at squeezing r > 0."""
    if r <= 0.0:
        raise ValueError("the symmetric threshold needs squeezing r > 0")
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
