"""Open-air attenuation channels, lossy two-mode resources, reach bounds,
amplification, and free-space link budgets.

All quantities are in SI units; the attenuation density mu is in 1/m and
distances in meters. The combined antenna + environment reflectivity is
eta_eff = eta_ant + (1 - eta_ant) eta_env, with eta_env = -expm1(-mu L).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import any_true, math_map, pow2_scale, source_pair
from .entanglement import BipartiteCM

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
    """AirChannel's check of its distances; a float one skips numpy, and a
    valid one costs one chained comparison."""
    if isinstance(length, float):
        if 0.0 <= length < math.inf:
            return
        finite = math.isfinite(length)
    else:
        finite = not any_true(~np.isfinite(length))
    if not finite:
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

    def __post_init__(self):
        if any(any_true(v <= 0) for v in (self.nu, self.d, self.a, self.e_a,
                                          self.w0, self.a_r)):
            raise ValueError("geometry parameters must be positive")
        if any_true(self.e_a > 1.0):
            raise ValueError("aperture efficiency cannot exceed 1")

    @property
    def wavelength(self):
        return LIGHT_SPEED / self.nu


def bose_einstein(nu, t):
    """Mean thermal photon number 1/(e^x - 1), x = h nu / k T, elementwise
    through core.math_map; 0 past x = 709.78, where math.expm1 overflows."""
    if any_true((nu <= 0) | (t <= 0)):
        raise ValueError("frequency and temperature must be positive")
    return math_map(_bose_einstein, PLANCK * nu / (BOLTZMANN * t))


def _bose_einstein(x):  # 0 where e^x - 1 overflows, inf where x underflows to 0
    return 0.0 if x > 709.782712893384 else 1.0 / math.expm1(x) if x else math.inf


def eta_env(ch):
    """Environment reflectivity -expm1(-mu L) of the attenuation channel."""
    return -math_map(math.expm1, -ch.mu * ch.L)


def _on_points(fn, x):
    """fn at the points x: one array call (a constant broadcasts), else one
    call per point."""
    try:
        return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
    except (TypeError, ValueError):  # say, an `if` on the argument
        return np.array([fn(v) for v in x.tolist()])


@functools.cache
def _leggauss(order):
    """Gauss-Legendre nodes and weights, one rule per order shared by every
    call, so never written into. numpy.polynomial loads on the first call."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(order)


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
            [w @ mu, w @ (mu * _on_points(n_fn, x) * math_map(math.exp, -tails))])
        if now[0] == 0.0:
            return 0.0, n_fn(0.0)
        if previous is not None and np.all(abs(now - previous) <= 1e-10 * abs(now)):
            eta = -math.expm1(-now[0])
            return eta, now[1] / eta
        previous = now
    raise RuntimeError("quadrature failed to converge")


def tmst_params(mu, length, n_th, eta_ant, r, n, geometry):
    """Standard-form (alpha, beta, gamma) of the two-mode squeezed thermal
    state distributed through an AirChannel, from the channel's fields,
    which it does not check: the link's cached tmst_polys at the distance
    (tmst_at), elementwise over an array of distances.

    geometry="asym": one mode stays at the source, the other travels the
    full distance; alpha belongs to the travelling mode. geometry="sym": the
    source sits midway and both modes travel L/2.
    """
    return tmst_at(tmst_polys(r, n, n_th, eta_ant, geometry), mu, length)


def tmst_at(polys, mu, length):
    """A link's tmst_polys evaluated by Horner at u = -expm1(-mu L / 2), the
    same u in both geometries, elementwise over an array of distances:
    tmst_at_u at tmst_u. tmst_params and teleport.TeleportResource.fidelity
    evaluate a link through it, and the channel table through its two parts,
    forming u once for both geometries. The one other place that forms u is
    the classical-limit march's step (teleport.TeleportResource._march_step),
    which writes these float operations out; tests/test_teleport.py::
    TestGridBracket::test_the_step_is_fidelity ties the two bit for bit.

    A distance that is not an array gives Python floats, on which the
    formulas downstream (fidelities, subtraction) run several times as fast
    as on numpy scalars.
    """
    return tmst_at_u(polys, tmst_u(mu, length))


def tmst_u(mu, length):
    """u = -expm1(-mu L / 2) of tmst_polys, elementwise. It comes from
    math.expm1 for a float and an array alike (core.math_map), so a scalar
    distance gives its array row bit for bit on every CPU; the argument is
    never positive, so math.expm1 cannot overflow."""
    return -math_map(math.expm1, -0.5 * mu * length)


def tmst_at_u(polys, u):
    """A link's tmst_polys evaluated by Horner at u (tmst_u), elementwise."""
    (a0, a1, a2), (b0, b1, b2), (g0, g1, g2) = polys
    return a0 + u * (a1 + u * a2), b0 + u * (b1 + u * b2), g0 + u * (g1 + u * g2)


def lossy_tmst(ch, r, n, geometry="asym"):
    """Two-mode squeezed thermal state distributed through the channel
    (see tmst_params); the lossy block comes first."""
    return BipartiteCM.standard_form(
        *tmst_params(ch.mu, ch.L, ch.n_th_env, ch.eta_ant, r, n, geometry), check=False)


def l_max(ch, r, n, geometry="asym"):
    """Maximum distance (m) before the distributed entanglement vanishes.

    The first root of nu_minus = 1 on the standard-form polynomials
    (tmst_polys). nu_minus = |D| / nu_plus with D = alpha beta - gamma^2 > 0
    and nu_plus = (alpha + beta)/2 + hypot((alpha - beta)/2, gamma)
    (entanglement.nu_minus_standard), so nu_minus = 1 iff D = alpha + beta - 1
    iff (alpha - 1)(beta - 1) = gamma^2, and nu_minus < 1 where gamma^2 -
    (alpha - 1)(beta - 1) > 0: a quadratic in u (asym), and 1 + gamma - alpha,
    linear in u, where alpha = beta (sym, sym_reach). Returns 0 when the
    source is not entangled; raises ValueError when the bound is never
    reached: mu = 0, or no thermal noise to end the entanglement.
    """
    if geometry == "sym":
        condition = sym_reach(r, n, ch.n_th_env, ch.eta_ant)
    else:  # beta = b0 is constant in u
        (a0, a1, a2), (b0, _, _), (g0, g1, _) = tmst_polys(
            r, n, ch.n_th_env, ch.eta_ant, geometry)
        condition = (g0 * g0 - (a0 - 1.0) * (b0 - 1.0),
                     2.0 * (g0 * g1) - a1 * (b0 - 1.0), g1 * g1 - a2 * (b0 - 1.0))
    if condition[0] <= 0.0:  # the source is not entangled
        return 0.0
    require_attenuation(ch.mu)
    if ch.n_th_env == 0.0:
        # pure loss: nu_minus reaches 1 only where the transmission vanishes,
        # at u = 1, a double root of the asymmetric quadratic
        raise ValueError(NEVER_REACHED)
    length = root_distance(condition, ch.mu)
    if length is None:
        raise ValueError(NEVER_REACHED)
    return length


# -- the lossy state and its distance bounds as polynomials ---------------
#
# Write t = t0 e^{-mu L / 2}: t = sqrt(1 - eta_eff) and t0 = sqrt(1 - eta_ant)
# for the asymmetric state, t = 1 - eta_eff of one L/2 arm and t0 = 1 - eta_ant
# for the symmetric one. The standard-form entries of lossy_tmst are then
# polynomials in t, and every Gaussian distance bound is the largest root in
# (0, t0] of a polynomial of degree <= 2: linear for the symmetric reach and
# swap's g2 - (a - 1) B (teleport.swap_condition), a quadratic for the rest.
# It is expanded in u = 1 - t / t0 = -expm1(-mu L / 2), 0 at the source, so
# L = -(2 / mu) ln(1 - u): in t the terms cancel to 1e-13 near t0 and the
# roots lose digits. tmst_at evaluates the same polynomials at u, so the
# state and its bounds share one set of coefficients. A polynomial is a
# 3-tuple of Python floats, lowest power first, and a condition writes its
# coefficients out: on small arrays numpy's calls cost more than the
# arithmetic.

NEVER_REACHED = "the bound is not reached at any distance"


def source_terms(r, n, n_th):
    """(a, c, e) of lossy_tmst: (a, c) = core.source_pair(r, n) are the
    source's diagonal and correlation entries, e = 1 + 2 n_th the
    environment's diagonal entry. Each term must be finite. Not cached: it
    runs once per cached tmst_polys link, and once per swap root."""
    a, c = source_pair(r, n)
    e = 1.0 + 2.0 * n_th
    if not math.isfinite(e):
        raise ValueError("the environment's 1 + 2 n_th overflows at n_th = %g" % n_th)
    return a, c, e


@functools.lru_cache(maxsize=64)
def tmst_polys(r, n, n_th, eta_ant, geometry):
    """(alpha, beta, gamma) of lossy_tmst as polynomials in u: 3-tuples of
    Python floats, lowest power first, zero-padded.

    alpha = a + (e - a) eta_eff, with eta_eff = eta_ant + t0 u (sym) or
    eta_ant + t0^2 (2u - u^2) (asym); gamma = c t = c t0 (1 - u).
    Cached, and tuples, so no reader can change them: a marched root reads
    them once, and every kind of one link and its l_max read one set of
    coefficients.
    """
    a, c, e = source_terms(r, n, n_th)
    at_source = a + (e - a) * eta_ant
    if geometry == "asym":
        t0 = math.sqrt(1.0 - eta_ant)
        lossy = (e - a) * t0 * t0
        if not math.isfinite(2.0 * lossy):
            raise ValueError("the asymmetric state's coefficient 2 (1 + 2 n_th - a) "
                             "(1 - eta_ant) overflows at n_th = %g, r = %g"
                             % (n_th, r))
        return ((at_source, 2.0 * lossy, -lossy), (a, 0.0, 0.0),
                (c * t0, -c * t0, 0.0))
    if geometry == "sym":
        t0 = 1.0 - eta_ant
        alpha = (at_source, (e - a) * t0, 0.0)
        return alpha, alpha, (c * t0, -c * t0, 0.0)
    raise ValueError("geometry must be 'asym' or 'sym'")


def sym_reach(r, n, n_th, eta_ant):
    """1 - (alpha - gamma) of the symmetric lossy_tmst, linear in u: positive
    where nu_minus < 1, and where the symmetric kinds beat F = 1/2 at g = inf."""
    (a0, a1, _), _, (g0, g1, _) = tmst_polys(r, n, n_th, eta_ant, "sym")
    return 1.0 - (a0 - g0), g1 - a1, 0.0


def require_attenuation(mu):
    """Distance bounds need mu > 0: without attenuation the state never changes."""
    if mu == 0.0:
        raise ValueError("mu = 0: without attenuation the state does not change "
                         "with distance, so no distance bound exists")


def root_distance(condition, mu, sigma=1.0):
    """Shortest distance (m) where c0 + c1 v + c2 v^2 vanishes, with u =
    sigma v for a power of two sigma: the smallest real root u in [0, 1), the
    largest t in (0, t0]; None when there is none.

    condition is (c0, c1, c2): every closed-form bound has degree <= 2,
    swap's g2 - (a - 1) B is linear. The roots are
    closed-form on Python floats. Where |c0| < 2^-600 |c2|, they are taken
    in v / rho, with the power of two rho that brings c2 rho^2 to within a
    factor 4 of c0: a root near 2^-530 (c2 2^1060 times c0) keeps its
    digits, where c0 and c1^2 would otherwise fall subnormal. The
    condition is then scaled by a power of two to a largest magnitude in
    [1/2, 1), which keeps c1^2 finite. Both scalings are exact and move no
    bit of a root. A non-finite coefficient raises ValueError.
    """
    c0, c1, c2 = condition
    size = max(abs(c0), abs(c1), abs(c2))
    if not size < math.inf or math.isnan(c0 + c1 + c2):  # max can skip a NaN
        raise ValueError("non-finite coefficient in a distance condition")
    if abs(c0) < 2.0 ** -600 * abs(c2):
        rho = math.ldexp(1.0, (math.frexp(c0)[1] - math.frexp(c2)[1]) // 2)
        c1, c2, sigma = c1 * rho, c2 * rho * rho, sigma * rho
        size = max(abs(c0), abs(c1), abs(c2))
    scale = pow2_scale(size)
    roots = _quadratic_roots(c0 * scale, c1 * scale, c2 * scale)
    real = [sigma * v for v in roots if 0.0 <= sigma * v < 1.0]
    if not real:
        return None
    return -2.0 / mu * math.log1p(-min(real))


def _quadratic_roots(c0, c1, c2):
    """Real roots of c0 + c1 u + c2 u^2, of a linear one when c2 = 0.

    q = -(c1 + sign(c1) sqrt(disc)) / 2 adds terms of one sign, so neither
    root q / c2 nor c0 / q loses digits to cancellation.
    """
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    if q == 0.0:  # c1 = c0 = 0: a double root at 0
        return [0.0]
    return [q / c2, c0 / q]


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
    """Free-space path loss (4 pi d nu / c)^2 in dB, elementwise: a sum of
    logarithms, so no product of d and nu can overflow."""
    if any_true((nu <= 0) | (d <= 0)):
        raise ValueError("frequency and distance must be positive")
    return 20.0 * (math_map(math.log10, d) + math_map(math.log10, nu)
                   + math.log10(4.0 * math.pi / LIGHT_SPEED))


def _square(geom, field):
    """The square of a LinkGeometry field, elementwise. ** on a Python float
    raises a bare OverflowError that names nothing; this one names the field
    and its value."""
    x = getattr(geom, field)
    try:
        return x ** 2
    except OverflowError:
        raise ValueError("the link geometry's %s^2 overflows at %s = %g"
                         % (field, field, x)) from None


def tau_path(geom):
    """Parabolic path transmissivity (pi a^2 e_a / (4 d lambda))^2."""
    return (np.pi * _square(geom, "a") * geom.e_a
            / (4.0 * geom.d * geom.wavelength)) ** 2


def spot_size(geom):
    """Beam spot size (w0 / sqrt 2)(d / z_R) at the link distance d of a beam
    of waist w0 focused there, with Rayleigh range z_R = pi w0^2 / (2 lambda)."""
    rayleigh = np.pi * _square(geom, "w0") / (2.0 * geom.wavelength)
    return (geom.w0 / np.sqrt(2.0)) * (geom.d / rayleigh)


def tau_diffraction(geom):
    """Diffraction-induced transmissivity 1 - e^{-2 (a_R / w(d))^2}; the
    ratio is squared, not w, which overflows first."""
    return -math_map(math.expm1, -2.0 * (geom.a_r / spot_size(geom)) ** 2)


def eta_threshold_asym(n_th):
    """Reflectivity below which the asymmetric state stays entangled (n ~ 0)."""
    return 1.0 / (1.0 + n_th)


def eta_threshold_sym(n_th, r):
    """Same threshold for the symmetric state at squeezing r > 0."""
    if r <= 0.0:
        raise ValueError("the symmetric threshold needs squeezing r > 0")
    return 1.0 / (1.0 + n_th * (1.0 + 1.0 / math.tanh(r)))


def aperture_product_threshold(wavelength, eta_lim, d):
    """Minimum a_R * w0 product preserving entanglement at distance d.

    Entanglement survives the diffraction channel when
    a_R w0 / d > (lambda / pi) sqrt(-ln eta_lim).
    """
    if not 0.0 < eta_lim < 1.0:
        raise ValueError("eta_lim must lie in (0, 1)")
    return d * (wavelength / np.pi) * math.sqrt(-math.log(eta_lim))


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

    Sections ([name]) only group keys for readability; values are floats,
    and each key is given once. Lines starting with '#' are comments.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError("line %d: %r is given twice" % (lineno, key))
        try:
            out[key] = float(value)
        except ValueError:
            raise ValueError("line %d: %s = %r is not a number"
                             % (lineno, key, value)) from None
    return out


def load_profile(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())
