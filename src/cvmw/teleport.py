"""Average fidelities of coherent-state teleportation for Gaussian and
photon-subtracted resources, including finite-gain homodyne detection.

TeleportResource builds no covariance matrix: it reads the standard-form
triple (alpha, beta, gamma) of its link from channel.tmst_polys, evaluated
at a distance by channel.tmst_at, and applies closed forms: the finite-gain
fidelity here, and distill.ps2_fidelity for both 2PS kinds. The polynomials
hold the geometry, full L for the asymmetric link and L/2 per arm for the
symmetric one. A swap joins two asymmetric links of L/2 each (swap_link).
The classical-limit march of the 2ps-*-asym kinds writes the float
operations of that route out in one function (TeleportResource._march_step).
The general-matrix routes (fidelity_concatenated, fidelity_2ps_general,
fidelity_heuristic) take a BipartiteCM.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SIGMA_Z, any_true, pow2_scale
from . import channel as channel_mod
from . import distill

CLASSICAL_FIDELITY = 0.5
MAX_DISTANCE = 5000.0  # m; a classical limit beyond it is an error
BEYOND_MAX = "fidelity stays above 1/2 up to %.0f m" % MAX_DISTANCE
# relative bracket width of the numeric classical limits: 9.5 mm at 5000 m
ROOT_RTOL = 2.0 ** -19
# m, Python floats; the numeric limits march it one point at a time to the
# first cell that crosses 1/2 (a 156.25 m cell) and refine there
ROOT_GRID = tuple(np.linspace(0.0, MAX_DISTANCE, 33).tolist())
ILL_CONDITIONED = "ill-conditioned resource: det[I + (k - 1/2) Gamma] <= 0"


def gamma_of(cm):
    """Gamma = sigma_z Sigma_A sigma_z + Sigma_B - sigma_z eps - eps^T sigma_z."""
    return (SIGMA_Z @ cm.sigma_a @ SIGMA_Z + cm.sigma_b
            - SIGMA_Z @ cm.eps - cm.eps.T @ SIGMA_Z)


def fidelity_concatenated(cm, k):
    """Fidelity of k concatenated protocols: 1/sqrt(det[I + (k - 1/2) Gamma]).

    At k = 1 it is the average fidelity of one Gaussian resource, which is
    independent of the displacement of the teleported coherent state.
    """
    if k < 1 or k != int(k):
        raise ValueError("k must be a positive integer")
    m = np.eye(2) + (k - 0.5) * gamma_of(cm)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det <= 0.0:
        raise ValueError(ILL_CONDITIONED)
    return 1.0 / np.sqrt(det)


def fidelity_ps_tmsv(lambda_tau, k):
    """Closed-form fidelity for 2k-photon-subtracted TMSV resources, k in {1, 2}."""
    lt = lambda_tau
    if not 0.0 <= lt < 1.0:
        raise ValueError("lambda_tau must lie in [0, 1)")
    if k == 1:
        return (1.0 - lt + lt ** 2 / 2.0) * (1.0 + lt) ** 3 / (2.0 * (1.0 + lt ** 2))
    if k == 2:
        s = lt * (2.0 - lt)
        return ((1.0 + lt) ** 5 * (8.0 - s * (8.0 - 3.0 * s))
                / (16.0 * (1.0 + 4.0 * lt ** 2 + lt ** 4)))
    raise ValueError("k must be 1 (2PS) or 2 (4PS)")


def fidelity_2ps_general(cm, tau):
    """Fidelity with symmetric two-photon subtraction: (fbar, g).

    The 2PS state is the heuristic subtraction of the Gaussian state of
    covariance Sigma-tilde, so this is fidelity_heuristic at Sigma-tilde
    and g is h there.
    """
    out = distill.ps2_gaussian(cm, tau)
    return fidelity_heuristic(out.cm, out.heuristic)


def fidelity_heuristic(cm, machinery=None):
    """Fidelity with heuristic photon subtraction: (fbar, h), where fbar is
    (1 + h) times the Gaussian fidelity of cm."""
    mach = distill.ps2_heuristic(cm) if machinery is None else machinery
    return (1.0 + mach.h) * fidelity_concatenated(cm, 1), mach.h


def regaussify_standard(alpha, beta, gamma, factor, mode="sym"):
    """Standard-form (alpha, beta, gamma) of regaussify's resource from the
    fidelity factor f = 1 + correction, elementwise over arrays: 1 + h of
    distill.heuristic_factor at the bare triple, or 1 + g, the same at the
    subtracted triple of distill.ps2_standard_form."""
    f = factor
    if mode == "asym":
        alpha = beta = 0.5 * (alpha + beta)
    elif mode != "sym":
        raise ValueError("mode must be 'sym' or 'asym'")
    return (alpha + 1.0 - f) / f, (beta + 1.0 - f) / f, gamma / f


def fidelity_finite_gain(alpha, beta, gamma, g):
    """Teleportation fidelity with finite-gain homodyne detection.

    g is the homodyne gain; at g = inf it is the ideal protocol's
    1/(1 + (alpha + beta - 2 gamma)/2). num and den are scaled by the power
    of two s with s (alpha + beta) in [1/2, 1), which keeps the bits, and
    1/sqrt(g) multiplies each entry first: no product of unscaled entries
    overflows, and at g = inf none is formed as 0 * inf.
    """
    if g <= 0.0:
        raise ValueError("gain must be positive")
    rg = 1.0 / math.sqrt(g)
    s = pow2_scale(alpha + beta)
    alpha_s, beta_s, gamma_s = alpha * s, beta * s, gamma * s
    half_num = 2.0 * s + rg * (s + alpha_s)
    den = (4.0 * (s + 0.5 * (alpha_s + beta_s - 2.0 * gamma_s))
           + (rg * alpha) * (5.0 * s + beta_s) + rg * beta_s
           - (rg * (gamma_s - s)) * (gamma + 5.0)
           + (2.0 / g) * (s + alpha_s))
    return 2.0 * half_num / den


def swapped_finite_gain_params(alpha, beta, gamma, g):
    """(alpha_tilde, gamma_tilde) of the swapped resource at gain g,
    elementwise; at g = inf the ideal swap, alpha - gamma^2/(2 beta) and
    gamma^2/(2 beta). As in fidelity_finite_gain, both fractions are scaled
    by the power of two s with s beta in [1/2, 1), exactly, and 1/sqrt(g)
    multiplies beta first, so beta^2 is never formed."""
    if any_true(beta <= 0.0):
        raise ValueError("beta must be positive")
    rg = 1.0 / math.sqrt(g)
    s = pow2_scale(beta)
    beta_s = beta * s
    den = 2.0 * (beta_s + (rg * s + (rg * beta) * beta_s) + beta_s / g)
    alpha_t = alpha - gamma ** 2 * (s + 2.0 * rg * beta_s + s / g) / den
    gamma_t = gamma ** 2 * (s - s / g) / den
    return alpha_t, gamma_t


def swap_link(link, mu, length, g):
    """(alpha, beta, gamma, alpha_tilde, gamma_tilde) of a swap over
    `length`: two identical asymmetric links of length/2, with link their
    tmst_polys, and the resource swapped at gain g
    (swapped_finite_gain_params), elementwise. Charlie measures the lossy
    modes, so alpha is the retained (lossless) block of each link."""
    beta, alpha, gamma = channel_mod.tmst_at(link, mu, length / 2.0)
    return (alpha, beta, gamma) + swapped_finite_gain_params(alpha, beta, gamma, g)


def half_fidelity_condition(alpha, beta, gamma, k):
    """2 num - den of fidelity_finite_gain, k0 - k1 alpha - k2 beta + k3 gamma
    + k (gamma^2 - alpha beta), which vanishes where the fidelity is 1/2.
    Polynomials in u are 3-tuples (channel.tmst_polys); the products are cut
    at degree 2, which is exact in both geometries. k = 1/sqrt(g). The
    products are ring operations, so on polynomials in v = u / sigma
    (entries p_i sigma^i) the condition comes out in v as well.
    """
    (a0, a1, a2), (b0, b1, b2), (g0, g1, g2) = alpha, beta, gamma
    k0, k1, k2, k3 = 4.0 - k - 2.0 * k * k, 2.0 + k + 2.0 * k * k, 2.0 + k, 4.0 * (1.0 + k)
    return (k0 - (k1 * a0 + k2 * b0 - k3 * g0) + k * (g0 * g0 - a0 * b0),
            k * (2.0 * (g0 * g1) - (a0 * b1 + a1 * b0))
            - (k1 * a1 + k2 * b1 - k3 * g1),
            k * (2.0 * (g0 * g2) + g1 * g1 - (a0 * b2 + a1 * b1 + a2 * b0))
            - (k1 * a2 + k2 * b2 - k3 * g2))


def swap_condition(a, beta, gamma_sq, k):
    """The F = 1/2 condition of the swapped resource, a quadratic q in u,
    positive where F > 1/2. Links with retained block a, lossy block B = beta
    and gamma^2 = g2 = gamma_sq (B, g2 linear in u) swap at the gain g = 1/k^2
    to a resource whose 2 num - den (fidelity_finite_gain) is q / ((B + k)
    (1 + k B)), that is q / (den / 2) of swapped_finite_gain_params, > 0 for
    B >= 1, k >= 0 (the tests derive both). q = g2 (n + w B - k^2 g2) - m (B +
    k)(1 + k B), w = 2k (ak + k^2 + k + 2), m = a^2 k + 2ak^2 + 2ak + 4a + 2k^2
    + k - 4, n = ak^3 + ak + k^4 - k^3 + k^2 + 3k + 4; 4 (g2 - (a - 1) B) at k = 0.
    As in half_fidelity_condition, B and g2 in v = u / sigma give q in v.
    """
    (b0, b1, _), (h0, h1, _) = beta, gamma_sq
    w = 2.0 * k * (a * k + k * k + k + 2.0)
    m = a * (a * k + 2.0 * k * k + 2.0 * k + 4.0) + 2.0 * k * k + k - 4.0
    n = a * k * (k * k + 1.0) + k ** 4 - k ** 3 + k * k + 3.0 * k + 4.0
    v0, v1 = n + w * b0 - k * k * h0, w * b1 - k * k * h1  # n + w B - k^2 g2
    return (h0 * v0 - m * ((b0 + k) * (1.0 + k * b0)),
            h0 * v1 + h1 * v0 - m * (b1 * (1.0 + k * k + 2.0 * k * b0)),
            h1 * v1 - m * (k * b1 * b1))


# kind -> (form, geometry of its link, finite gain): the dispatch of
# TeleportResource, one lookup per call. Swap links are asymmetric.
FORMS = {
    "tmst-asym": ("tmst", "asym", False),
    "tmst-sym": ("tmst", "sym", False),
    "2ps-prob-asym": ("2ps-prob", "asym", False),
    "2ps-prob-sym": ("2ps-prob", "sym", False),
    "2ps-heur-asym": ("2ps-heur", "asym", False),
    "2ps-heur-sym": ("2ps-heur", "sym", False),
    "swap": ("swap", "asym", False),
    "tmst-asym-fg": ("tmst", "asym", True),
    "tmst-sym-fg": ("tmst", "sym", True),
    "swap-fg": ("swap", "asym", True),
}


@dataclass(frozen=True)
class TeleportResource:
    """Resource selector for the distance-dependent fidelity sweeps.

    kind: tmst-asym | tmst-sym | 2ps-prob-asym | 2ps-prob-sym |
          2ps-heur-asym | 2ps-heur-sym | swap | tmst-asym-fg |
          tmst-sym-fg | swap-fg
    """
    kind: str
    r: float
    n: float
    mu: float
    n_th: float
    eta_ant: float = 0.0
    tau: float = 0.95
    inv_gain: float = 0.0

    KINDS = tuple(FORMS)

    def __post_init__(self):
        if self.kind not in FORMS:
            raise ValueError("unknown resource kind %r" % self.kind)
        form, _, finite_gain = FORMS[self.kind]
        if finite_gain and not (math.isfinite(self.inv_gain) and self.inv_gain > 0.0):
            raise ValueError("finite-gain resources need a finite inv_gain > 0")
        if form == "2ps-prob" and not 0.0 < self.tau < 1.0:
            raise ValueError("transmissivity must lie in (0, 1)")
        channel_mod.AirChannel(self.mu, 0.0, self.n_th, self.eta_ant)  # checked once

    @property
    def geometry(self):
        """Geometry of the underlying lossy TMST; swap links are asym."""
        return FORMS[self.kind][1]

    def fidelity(self, length):
        """Average fidelity at distance `length` (m), elementwise over an
        array of distances.

        The ideal kinds are their finite-gain forms at g = inf, and the
        2PS kinds are distill.ps2_fidelity of the link triple, with tau for
        2ps-prob. A float distance stays a float: no 0-d array is formed on
        the way.
        """
        form, geometry, finite_gain = FORMS[self.kind]
        if not isinstance(length, float):
            length = np.asarray(length, dtype=float)
        channel_mod.check_lengths(length)
        link = channel_mod.tmst_polys(self.r, self.n, self.n_th, self.eta_ant, geometry)
        if form == "swap":
            gain = 1.0 / self.inv_gain if finite_gain else math.inf
            *_, a_t, g_t = swap_link(link, self.mu, length, gain)
            return fidelity_finite_gain(a_t, a_t, g_t, gain)
        return self._fidelity_at(*channel_mod.tmst_at(link, self.mu, length))

    def _fidelity_at(self, alpha, beta, gamma):
        """fidelity of a kind other than the swaps from its link triple,
        which the kinds of one geometry share."""
        form, _, finite_gain = FORMS[self.kind]
        if form == "tmst":
            gain = 1.0 / self.inv_gain if finite_gain else math.inf
            return fidelity_finite_gain(alpha, beta, gamma, gain)
        return distill.ps2_fidelity(alpha, beta, gamma,
                                    self.tau if form == "2ps-prob" else None)

    def _march_step(self):
        """F - 1/2 of a marched kind at a float distance in [0, MAX_DISTANCE],
        as one straight-line function of Python floats: the float operations
        of fidelity's route, channel.tmst_at (u = -expm1(-mu L/2), then the
        Horner of the link's tmst_polys) and distill.ps2_fidelity for the
        kind (_ps2_numerators and its two singular-block checks, the power of
        two scalings, _ps2_kernel with its E <= 0 rescue), one for one and
        with the same errors, so every step is fidelity(L) - 1/2 bit for bit
        (tests/test_teleport.py::TestGridBracket ties the two routes). The
        link, mu, tau and the functions of math are bound once per root, and
        a step makes no Python call but those of math. The march takes its
        step from this method alone; tests replace it to watch or break it."""
        form, geometry, _ = FORMS[self.kind]
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = channel_mod.tmst_polys(
            self.r, self.n, self.n_th, self.eta_ant, geometry)
        half_mu, half = -0.5 * self.mu, CLASSICAL_FIDELITY
        expm1, frexp, ldexp = math.expm1, math.frexp, math.ldexp

        heuristic = form == "2ps-heur"
        tau = 0.5 if heuristic else self.tau  # a heuristic step reads no tau
        if not 0.0 < tau < 1.0:
            raise ValueError("transmissivity must lie in (0, 1)")
        one_minus, one_plus = 1.0 - tau, 1.0 + tau
        two_tau, four_tau, tau_sq = 2.0 * tau, 4.0 * tau, tau ** 2

        def excess_at(length):
            u = -expm1(half_mu * length)
            alpha = a0 + u * (a1 + u * a2)
            beta = b0 + u * (b1 + u * b2)
            gamma = c0 + u * (c1 + u * c2)
            if heuristic:
                d = ldexp(1.0, -frexp(alpha + beta)[1])
                a, b, g = d - alpha * d, d - beta * d, gamma * d
            else:  # distill._ps2_numerators, then den scaled into [1/2, 1)
                s = ldexp(1.0, -frexp(alpha + beta)[1])
                alpha_s, beta_s, gamma_s = alpha * s, beta * s, gamma * s
                tol2 = 2e-7 * s
                x_a2 = one_minus * alpha_s + one_plus * s
                if abs(x_a2) < tol2:
                    raise ValueError("singular X_A block")
                g2 = gamma_s * gamma_s
                a_minus, a_plus = s - alpha_s, s + alpha_s
                b_minus, b_plus = s - beta_s, s + beta_s
                cross = a_minus * b_minus - g2
                den = (a_plus * b_plus - g2
                       + two_tau * (s * s - alpha_s * beta_s + g2) + cross * tau_sq)
                if abs(den / x_a2) < tol2:
                    raise ValueError("singular Y block")
                cross_tau = cross * tau
                scale = ldexp(1.0, -frexp(den)[1])
                a = two_tau * (a_minus * b_plus + g2 + cross_tau) * scale
                b = two_tau * (a_plus * b_minus + g2 + cross_tau) * scale
                g, d = four_tau * gamma_s * (s * scale), den * scale
            # distill._ps2_kernel and ps2_fidelity's 4 (N/E) d/T^3
            ab, g2 = a * b, g * g
            e = ab + g2
            if e <= 0.0:
                s = ldexp(1.0, -frexp(abs(a) + abs(b) + abs(g))[1])
                ab_s, g2_s = (a * s) * (b * s), (g * s) * (g * s)
                if ab_s + g2_s <= 0.0:
                    raise ValueError(distill._E0_NOT_POSITIVE)
                ratio = (ab_s - g2_s) / (ab_s + g2_s)
            else:
                ratio = (ab - g2) / e
            n_e = (ab - g2) * ratio + 2.0 * (2.0 * g - a - b) * ratio * d + 8.0 * d * d
            t = 4.0 * d - a - b - 2.0 * g
            return 4.0 * n_e / (t * t * t) * d - half
        return excess_at

    def _half_fidelity_poly(self):
        """The F = 1/2 condition, positive where F > 1/2, as (condition,
        sigma): a polynomial in v = u / sigma (channel.tmst_polys), or None
        for a kind that marches.

        The symmetric kinds at g = inf have the symmetric reach (the tests
        derive it). An L/2 swap link shares t with a symmetric arm: its lossy
        block is the arm's alpha, and its gamma^2 = c^2 t is c times the arm's gamma.
        The link polynomials enter in v, as (p0, sigma p1, sigma^2 p2), with
        the power of two sigma that brings the lossy block's u entry ((e - a)
        t0 or 2 (e - a) t0^2, the largest one) below 2^448: where 1 + 2 n_th
        is huge, no product of two entries overflows. The constant term is
        never scaled. The others are exact multiples of their u forms, but
        for a sigma^2-scaled product of two source entries that falls
        subnormal; it sits beside a product with the lossy entry, over
        2^400 times larger for a source a below 2^48, and moves no bit.
        """
        form, geometry, finite_gain = FORMS[self.kind]
        if geometry == "sym" and not finite_gain:
            return channel_mod.sym_reach(self.r, self.n, self.n_th, self.eta_ant), 1.0
        if form.startswith("2ps"):
            return None
        k = math.sqrt(self.inv_gain) if finite_gain else 0.0
        swap = form == "swap"
        polys = channel_mod.tmst_polys(self.r, self.n, self.n_th, self.eta_ant,
                                       "sym" if swap else geometry)
        if swap:
            a, c, _ = channel_mod.source_terms(self.r, self.n, self.n_th)
            polys = (polys[0], [c * x for x in polys[2]])
        exponent = math.frexp(polys[0][1])[1]
        sigma = 1.0 if exponent <= 448 else math.ldexp(1.0, 448 - exponent)
        if sigma != 1.0:
            polys = [(p0, p1 * sigma, p2 * sigma * sigma) for p0, p1, p2 in polys]
        if not swap:
            return half_fidelity_condition(*polys, k), sigma
        return swap_condition(a, *polys, k), sigma

    def classical_limit_distance(self):
        """Distance (m) where the fidelity first crosses 1/2.

        All kinds but 2ps-*-asym solve a closed-form condition in
        v = u / sigma (channel.root_distance), whose constant term has the
        sign of F - 1/2 at the source, of degree <= 2: linear for the
        symmetric kinds at g = inf and swap (g2 - (a - 1) B), else quadratic.
        2ps-*-asym march ROOT_GRID one float at a time to the first point
        where the fidelity is at most 1/2, and Anderson-Bjorck narrows that
        cell to a bracket ROOT_RTOL times the root wide, however small the
        root. Every point of a march, the source included, is one call of
        the step that _march_step binds once per root. Points beyond the
        crossing, and inside earlier cells, are not evaluated: a second
        crossing within one cell is not seen.
        Returns 0 when the fidelity at the source is at most 1/2; raises
        ValueError when mu = 0, on a non-finite fidelity before the crossing,
        or when the root lies beyond MAX_DISTANCE.
        """
        closed = self._half_fidelity_poly()
        if closed is None:
            excess_at = self._march_step()
            excess = excess_at(0.0)
        else:
            condition, sigma = closed
            excess = condition[0]
        if excess <= 0.0:  # at the source
            return 0.0
        channel_mod.require_attenuation(self.mu)
        if closed is None:
            a = f_a = None
            for b in ROOT_GRID:
                f_b = excess if a is None else excess_at(b)  # the source is known
                if not math.isfinite(f_b):
                    raise ValueError("non-finite fidelity on the bracketing grid")
                if f_b <= 0.0:  # the first cell that crosses
                    return anderson_bjorck(excess_at, a, b, f_a, f_b, ROOT_RTOL)
                a, f_a = b, f_b
            raise ValueError(BEYOND_MAX)
        length = channel_mod.root_distance(condition, self.mu, sigma)
        if length is None or length > MAX_DISTANCE:
            raise ValueError(BEYOND_MAX)
        return length


def anderson_bjorck(f, a, b, f_a, f_b, rtol):
    """Root c of f between a and b, where f_a = f(a) and f_b = f(b) differ in
    sign, to a bracket no wider than rtol |c|. rtol must sit well above the
    float spacing (2^-52 relative): a bracket of a few ulps may never close.

    Regula falsi that, on every step, scales the value kept at the end that
    stays by m = 1 - f(c)/f(moved end), or by 1/2 when m <= 0 (Anderson and
    Bjorck, BIT 13, 1973), so both ends close in on the root.
    """
    while True:
        c = (a * f_b - b * f_a) / (f_b - f_a)
        f_c = f(c)
        if f_c == 0.0:
            return c
        if not math.isfinite(f_c):
            raise ValueError("non-finite value at %r inside the bracket" % c)
        if (f_c > 0.0) == (f_b > 0.0):
            m = 1.0 - f_c / f_b
            f_a *= m if m > 0.0 else 0.5
            b, f_b = c, f_c
        else:
            m = 1.0 - f_c / f_a
            f_b *= m if m > 0.0 else 0.5
            a, f_a = c, f_c
        if abs(b - a) <= rtol * abs(c):
            return c
