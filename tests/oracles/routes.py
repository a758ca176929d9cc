"""Independent routes to library quantities: the same states and numbers
built from their definitions instead of the library's closed forms."""

import math

import mpmath
import numpy as np
from numpy.polynomial import Polynomial

from cvmw.bifreq import bifreq_probe
from cvmw.channel import AirChannel, eta_env
from cvmw.core import GaussianState, apply, beam_splitter, omega, thermal, tmst
from cvmw.entanglement import BipartiteCM
from cvmw.fock import _bargmann, _expm_antihermitian, thermal_density
from cvmw.illumination import eta_eff as qi_eta_eff, qi_probe
from cvmw.teleport import (BEYOND_MAX, MAX_DISTANCE, ROOT_GRID, ROOT_RTOL,
                           anderson_bjorck)
from tests.oracles.fock_ops import partial_transpose
from tests.oracles.general import partial_trace


def eta_eff(ch):
    """Combined antenna + environment reflectivity eta_ant + (1 - eta_ant)
    eta_env of an AirChannel."""
    return ch.eta_ant + (1.0 - ch.eta_ant) * eta_env(ch)


def lossy_tmst_constructive(ch, r, n, geometry="asym"):
    """channel.lossy_tmst assembled from core operations (beam splitter +
    thermal environment); the lossy mode(s) come first."""
    if geometry not in ("asym", "sym"):
        raise ValueError("geometry must be 'asym' or 'sym'")
    lossy = (0,) if geometry == "asym" else (0, 1)
    if geometry == "sym":
        ch = AirChannel(ch.mu, ch.L / 2.0, ch.n_th_env, ch.eta_ant)
    eta = eta_eff(ch)
    size = 4 + 2 * len(lossy)
    sigma = np.zeros((size, size))
    sigma[:4, :4] = tmst(r, n).sigma
    for k in range(len(lossy)):
        sigma[4 + 2 * k:6 + 2 * k, 4 + 2 * k:6 + 2 * k] = thermal(1, ch.n_th_env).sigma
    state = GaussianState(np.zeros(size), sigma, check=False)
    # transmissivity 1 - eta on each (travelling mode, environment) pair
    for k, mode in enumerate(lossy):
        state = apply(state, beam_splitter(1.0 - eta), on=(mode, 2 + k))
    return BipartiteCM.from_state(partial_trace(state, keep=(0, 1)))


def qi_received_constructive(params):
    """illumination.qi_received built by applying the beam splitter to the
    probe and tracing. Object and medium act with amplitude reflectivity
    eta e^{-gamma} on the signal, i.e. intensity (eta e^{-gamma})^2."""
    x = qi_eta_eff(params.eta, params.gamma)
    transformed = apply(qi_probe(params.n_s, params.n_th), beam_splitter(x ** 2),
                        on=(0, 1))
    return BipartiteCM.from_state(partial_trace(transformed, keep=(1, 2)))


def illumination_classical_constructive(params):
    """illumination.classical_received_family's state: a coherent signal of
    n_s photons and the thermal bath pass the beam splitter of reflectivity
    (eta e^{-gamma})^2, the signal output is kept, and a thermal spectator
    mode of the bath's occupation is appended."""
    x = qi_eta_eff(params.eta, params.gamma)
    probe = GaussianState([0.0, 0.0, np.sqrt(2.0 * params.n_s), 0.0, 0.0, 0.0],
                          np.diag([1.0 + 2.0 * params.n_th] * 2 + [1.0, 1.0]
                                  + [1.0 + 2.0 * params.n_th] * 2))
    return partial_trace(apply(probe, beam_splitter(x ** 2), on=(0, 1)), keep=(1, 2))


def bifreq_classical_constructive(params):
    """bifreq.classical_received_family's state: at each frequency a coherent
    beam of n_s photons and the thermal bath pass a beam splitter of
    reflectivity eta1 and eta1 + lam, and the signal outputs are kept."""
    amp = np.sqrt(2.0 * params.n_s)
    bath = [1.0 + 2.0 * params.n_th] * 2
    probe = GaussianState([0.0, 0.0, amp, 0.0] * 2, np.diag((bath + [1.0, 1.0]) * 2))
    out = apply(probe, beam_splitter(params.eta1), on=(0, 1))
    out = apply(out, beam_splitter(params.eta1 + params.lam), on=(2, 3))
    return partial_trace(out, keep=(1, 3))


def bifreq_received_constructive(params):
    """bifreq.bifreq_received built from the four-mode probe: each (bath,
    signal) pair passes its own beam splitter, of reflectivity eta1 and
    eta1 + lam, and the reflected signal outputs are kept."""
    probe = bifreq_probe(params)
    out = apply(probe, beam_splitter(params.eta1), on=(0, 1))
    out = apply(out, beam_splitter(params.eta1 + params.lam), on=(2, 3))
    return BipartiteCM.from_state(partial_trace(out, keep=(1, 3)))


def eta_eff_iterated(gamma, n_doublings=20):
    """Transmissivity of 2^k identical infinitesimal splitters, composed
    pairwise; converges to e^{-gamma}, the continuum limit."""
    tau = gamma / 2 ** n_doublings
    for _ in range(n_doublings):
        tau = 2.0 * tau * (1.0 - tau / 2.0)
    return 1.0 - tau


def success_probability_series(ps, rel_tol=1e-18):
    """sum_n |a_n|^2 of a distill.PsTmsv, summed until a term falls below
    rel_tol times the total."""
    total, n = 0.0, 0
    while True:
        t = ps.amplitude(n) ** 2
        total += t
        if n > 2 and t < rel_tol * total:
            return total
        n += 1


def two_mode_symplectic_eigenvalues(sigma):
    """Symplectic eigenvalues of a two-mode covariance matrix from the
    invariants of A = i Omega Sigma:
    nu_pm^2 = (Tr[A^2] +/- sqrt((Tr[A^2])^2 - 16 det Sigma)) / 4."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (4, 4):
        raise ValueError("expected a 4x4 covariance matrix")
    a = 1j * omega(2) @ sigma
    tr_a2 = np.trace(a @ a).real
    root = np.sqrt(max(tr_a2 ** 2 - 16.0 * np.linalg.det(sigma), 0.0))
    return np.array([np.sqrt(max((tr_a2 - root) / 4.0, 0.0)),
                     np.sqrt((tr_a2 + root) / 4.0)])


def symplectic_spectrum_mp(sigma, dps=60):
    """(nu, positive) of a covariance matrix at dps digits, from the
    definitions: nu, ascending, the moduli of the eigenvalues of i Omega
    Sigma, which come in +/- pairs, one of each kept, with Omega the
    block-diagonal [[0, 1], [-1, 0]] built here; positive, whether the
    smallest eigenvalue of Sigma is above 0. Both are mpf-exact to dps
    digits of the float entries."""
    with mpmath.workdps(dps):
        size = len(sigma)
        s = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in sigma])
        w = mpmath.zeros(size)
        for j in range(0, size, 2):
            w[j, j + 1], w[j + 1, j] = 1, -1
        ev = mpmath.eig(mpmath.mpc(0, 1) * w * s, left=False, right=False)
        nu = sorted(abs(x) for x in ev)[::2]
        return nu, min(mpmath.eigsy(s, eigvals_only=True)) > 0


def nu_minus_mp(alpha, beta, gamma, dps=60):
    """nu_minus of the standard-form matrix (alpha I, beta I, gamma sigma_z)
    at dps digits, from the invariants of its partial transpose:
    Delta = alpha^2 + beta^2 + 2 gamma^2 and det Sigma = D^2 with
    D = alpha beta - gamma^2 give nu_minus^2 = 2 D^2 / (Delta + sqrt(Delta^2
    - 4 D^2)), the smaller root of nu^4 - Delta nu^2 + D^2. The entries may
    be floats or mpf; the result is the float nearest the dps-digit value."""
    with mpmath.workdps(dps):
        a, b, c = (mpmath.mpf(x) for x in (alpha, beta, gamma))
        delta, det = a * a + b * b + 2 * c * c, (a * b - c * c) ** 2
        root = mpmath.sqrt(max(delta * delta - 4 * det, 0))
        return float(mpmath.sqrt(2 * det / (delta + root)))


def probe_nu_minus_mp(n_s, n_th, dps=60):
    """nu_minus of illumination.qi_probe's signal-idler block at dps digits:
    the block's triple (1 + 2 n_s + 2 n_th, 1 + 2 n_s, 2 sqrt(n_s (1 + n_s)))
    is formed at that precision, not read from the float matrix, and handed
    to nu_minus_mp."""
    with mpmath.workdps(dps):
        n_s, n_th = mpmath.mpf(n_s), mpmath.mpf(n_th)
        return nu_minus_mp(1 + 2 * n_s + 2 * n_th, 1 + 2 * n_s,
                           2 * mpmath.sqrt(n_s * (1 + n_s)), dps)


def ps2_standard_form_mp(alpha, beta, gamma, tau, dps):
    """(alpha_tilde, beta_tilde, gamma_tilde, P) of the beam-splitter 2PS on
    the standard-form triple (alpha, beta, gamma) at dps digits, as mpf, in
    the closed forms of ps2_gaussian's blocks for that input: den = 4 det
    X_A^{1/2} det Y^{1/2} = (1 + alpha)(1 + beta) - gamma^2 + 2 (1 - alpha
    beta + gamma^2) tau + ((1 - alpha)(1 - beta) - gamma^2) tau^2, and P the
    quartic over den^3, 4 (1 - tau)^2 ((1 - alpha beta + gamma^2 + ((1 -
    alpha)(1 - beta) - gamma^2) tau)^2 - (alpha - beta)^2 + 4 gamma^2) /
    den^3, which cancels about 2 log10 alpha digits. The entries are floats
    or mpf."""
    with mpmath.workdps(dps):
        a, b, c, t = (mpmath.mpf(x) for x in (alpha, beta, gamma, tau))
        cross = (1 - a) * (1 - b) - c * c
        den = ((1 + a) * (1 + b) - c * c + 2 * (1 - a * b + c * c) * t
               + cross * t * t)
        quartic = (1 - a * b + c * c + cross * t) ** 2 - (a - b) ** 2 + 4 * c * c
        return (1 - 2 * t * ((1 - a) * (1 + b) + c * c + cross * t) / den,
                1 - 2 * t * ((1 + a) * (1 - b) + c * c + cross * t) / den,
                4 * t * c / den, 4 * (1 - t) ** 2 * quartic / den ** 3)


def heuristic_factor_mp(alpha, beta, gamma, dps=250):
    """1 + h of the heuristic subtraction on the standard-form triple
    (alpha, beta, gamma) at dps digits, as an mpf, with h in its quartic N
    form: h = -N / ((S + 2)^2 E_0), E_0 = (alpha - 1)(beta - 1) + gamma^2,
    N = ((S - 2)^3 (S + 6) - D^4) / 8 + D^2 (2 - S + gamma (S + 2)),
    S = alpha + beta - 2 gamma and D = alpha - beta. N loses about
    3 log10 alpha digits to cancellation where beta << alpha. The entries
    are floats or mpf."""
    with mpmath.workdps(dps):
        a, b, c = (mpmath.mpf(x) for x in (alpha, beta, gamma))
        s, d2 = a + b - 2 * c, (a - b) ** 2
        e0 = (a - 1) * (b - 1) + c * c
        num = ((s - 2) ** 3 * (s + 6) - d2 * d2) / 8 + d2 * (2 - s + c * (s + 2))
        return 1 - num / ((s + 2) ** 2 * e0)


def ps2_fidelity_mp(alpha, beta, gamma, tau=None, dps=250):
    """Fidelity (1 + h) / (1 + S/2) of the photon-subtracted resource on the
    standard-form triple (alpha, beta, gamma) at dps digits, S = alpha +
    beta - 2 gamma, with 1 + h from heuristic_factor_mp. With tau, the
    triple is first subtracted by the beam-splitter scheme, in
    ps2_standard_form_mp at the same precision. The entries are floats or
    mpf; the result is the float nearest the dps-digit value."""
    with mpmath.workdps(dps):
        a, b, c = (mpmath.mpf(x) for x in (alpha, beta, gamma))
        if tau is not None:
            a, b, c, _ = ps2_standard_form_mp(a, b, c, tau, dps)
        return float(heuristic_factor_mp(a, b, c, dps) / (1 + (a + b - 2 * c) / 2))


def classical_limit_mp(resource, dps=60):
    """Classical-limit distance (m) of a 2ps-*-asym TeleportResource at dps
    digits: F = 1/2 solved by bisection (mpmath.findroot) in x = ln L over
    [1e-320, MAX_DISTANCE] m, which must hold the crossing. The triple is
    restated from its definitions: alpha = a + (e - a) eta_eff, beta = a,
    gamma = c sqrt(1 - eta_eff), with a = (1 + 2n) cosh 2r, c = (1 + 2n)
    sinh 2r, e = 1 + 2 n_th and eta_eff = eta_ant + (1 - eta_ant)
    (1 - e^{-mu L}), the last factor by expm1, so a tiny mu L keeps its
    digits. F is ps2_fidelity_mp's, at 4 log10 alpha more digits than dps,
    since its quartic N cancels about 3 log10 alpha of them. F comes back
    as a float, and its rounding near 1/2 bounds how sharp the root is."""
    tau = resource.tau if resource.kind.startswith("2ps-prob") else None
    with mpmath.workdps(dps):
        s, r2 = 1 + 2 * mpmath.mpf(resource.n), 2 * mpmath.mpf(resource.r)
        a, c = s * mpmath.cosh(r2), s * mpmath.sinh(r2)
        e, kept = 1 + 2 * mpmath.mpf(resource.n_th), 1 - mpmath.mpf(resource.eta_ant)

        def excess(x):
            eta = 1 - kept - kept * mpmath.expm1(-resource.mu * mpmath.exp(x))
            alpha = a + (e - a) * eta
            digits = dps + 4 * max(0, int(mpmath.log10(alpha)))
            gamma = c * mpmath.sqrt(1 - eta)
            return ps2_fidelity_mp(alpha, a, gamma, tau, digits) - 0.5

        ends = (mpmath.log(1e-320), mpmath.log(MAX_DISTANCE))
        if not excess(ends[0]) > 0.0 > excess(ends[1]):
            raise ValueError("no crossing of 1/2 between the ends")
        x = mpmath.findroot(excess, ends, solver="bisect", tol=mpmath.mpf(2) ** -60,
                            verify=False)
        return float(mpmath.exp(x))


def illinois(f, a, b, f_a, f_b, rtol):
    """Root c of f between a and b, where f_a = f(a) and f_b = f(b) differ in
    sign, to a bracket no wider than rtol |c|: regula falsi that halves the
    value kept at one end when the same end is kept twice in a row (the
    Illinois rule), a refiner of its own for the full-bracket oracle."""
    kept = 0
    while True:
        c = (a * f_b - b * f_a) / (f_b - f_a)
        f_c = f(c)
        if f_c == 0.0:
            return c
        if not math.isfinite(f_c):
            raise ValueError("non-finite value at %r inside the bracket" % c)
        if (f_c > 0.0) == (f_b > 0.0):
            b, f_b = c, f_c
            if kept == -1:
                f_a *= 0.5
            kept = -1
        else:
            a, f_a = c, f_c
            if kept == 1:
                f_b *= 0.5
            kept = 1
        if abs(b - a) <= rtol * abs(c):
            return c


def classical_limit_full_bracket(resource):
    """A numeric classical-limit distance by Illinois over all of
    [0, MAX_DISTANCE], from scalar fidelities at both ends: 0 when the
    source fidelity is at most 1/2, ValueError when the far end is above."""
    excess = lambda length: resource.fidelity(length) - 0.5
    at_source, at_max = excess(0.0), excess(MAX_DISTANCE)
    if at_source <= 0.0:
        return 0.0
    if at_max > 0.0:
        raise ValueError(BEYOND_MAX)
    return illinois(excess, 0.0, MAX_DISTANCE, at_source, at_max, ROOT_RTOL)


def classical_limit_array_bracket(resource):
    """A numeric classical-limit distance from one array call: the excess
    F - 1/2 on all of ROOT_GRID, which must be finite, brackets the first
    crossing, and the library's refiner narrows that cell to ROOT_RTOL. 0
    when the source fidelity is at most 1/2; ValueError when no point
    crosses."""
    excess = resource.fidelity(ROOT_GRID) - 0.5
    if excess[0] <= 0.0:
        return 0.0
    if not np.isfinite(excess).all():
        raise ValueError("non-finite fidelity on the bracketing grid")
    i = np.argmax(excess <= 0.0)
    if i == 0:
        raise ValueError(BEYOND_MAX)
    return anderson_bjorck(lambda length: resource.fidelity(length) - 0.5,
                           ROOT_GRID[i - 1], ROOT_GRID[i], excess[i - 1], excess[i],
                           ROOT_RTOL)


def l_max_quartic(ch, r, n):
    """channel.l_max's asymmetric reach from the whole nu_minus = 1 condition
    on the standard-form polynomials: 1 - (alpha^2 + beta^2 + 2 gamma^2) +
    (alpha beta - gamma^2)^2 = 0, a quartic in u, solved by numpy.polynomial.
    Assumes an entangled source, mu > 0 and n_th > 0."""
    alpha, beta, gamma = (Polynomial(x) for x in tmst_polys_array(
        r, n, ch.n_th_env, ch.eta_ant, "asym"))
    condition = (1.0 - alpha ** 2 - beta ** 2 - 2.0 * gamma ** 2
                 + (alpha * beta - gamma ** 2) ** 2)
    u = min(x.real for x in condition.roots()
            if x.imag == 0.0 and 0.0 <= x.real < 1.0)
    return -2.0 / ch.mu * np.log1p(-u)


# The distance-bound conditions by generic array algebra: numpy coefficient
# arrays (lowest power first, zero-padded to POLY_LEN) multiplied by
# np.convolve, where the library writes each coefficient out on floats.

POLY_LEN = 5


def poly(*coeffs):
    """Coefficient array, zero-padded to POLY_LEN."""
    out = np.zeros(POLY_LEN)
    out[:len(coeffs)] = coeffs
    return out


def poly_mul(p, q):
    """Product of two coefficient arrays; its degree must stay below POLY_LEN."""
    return np.convolve(p, q)[:POLY_LEN]


def tmst_polys_array(r, n, n_th, eta_ant, geometry):
    """(alpha, beta, gamma) of the distributed state as coefficient arrays in
    u = 1 - t / t0. With a = (1 + 2n) cosh 2r, c = (1 + 2n) sinh 2r and
    e = 1 + 2 n_th: alpha = a + (e - a) eta_eff, where eta_eff = eta_ant +
    t0^2 (2u - u^2), t0 = sqrt(1 - eta_ant), in the asymmetric geometry and
    eta_ant + t0 u, t0 = 1 - eta_ant, in the symmetric one; gamma = c t0 (1 - u)."""
    scale = 1.0 + 2.0 * n
    a, c, e = scale * math.cosh(2.0 * r), scale * math.sinh(2.0 * r), 1.0 + 2.0 * n_th
    at_source = a + (e - a) * eta_ant
    if geometry == "asym":
        t0 = np.sqrt(1.0 - eta_ant)
        lossy = (e - a) * t0 * t0
        return (poly(at_source, 2.0 * lossy, -lossy), poly(a),
                poly(c * t0, -c * t0))
    t0 = 1.0 - eta_ant
    alpha = poly(at_source, (e - a) * t0)
    return alpha, alpha, poly(c * t0, -c * t0)


def half_fidelity_condition_array(alpha, beta, gamma, k, w):
    """w^2 (2 num - den) of teleport.fidelity_finite_gain at (alpha, beta,
    gamma) / w, on coefficient arrays, with k = 1/sqrt(g)."""
    return ((4.0 - k - 2.0 * k * k) * poly_mul(w, w)
            - poly_mul((2.0 + k + 2.0 * k * k) * alpha + (2.0 + k) * beta
                       - 4.0 * (1.0 + k) * gamma, w)
            + k * (poly_mul(gamma, gamma) - poly_mul(alpha, beta)))


def half_fidelity_poly_array(resource):
    """The F = 1/2 condition of a Gaussian TeleportResource as a coefficient
    array. A swap link of length L/2 has the lossy block alpha of a
    symmetric arm, the retained block a and gamma^2 = c times the arm's
    gamma; the swapped resource is (alpha_t, alpha_t, gamma_t) / den at the
    gain g = 1/k^2."""
    k = np.sqrt(resource.inv_gain) if resource.kind.endswith("-fg") else 0.0
    one = poly(1.0)
    link = (resource.r, resource.n, resource.n_th, resource.eta_ant)
    if not resource.kind.startswith("swap"):
        alpha, beta, gamma = tmst_polys_array(*link, resource.geometry)
        return half_fidelity_condition_array(alpha, beta, gamma, k, one)
    scale = 1.0 + 2.0 * resource.n
    a, c = scale * math.cosh(2.0 * resource.r), scale * math.sinh(2.0 * resource.r)
    beta_l, _, gamma_t = tmst_polys_array(*link, "sym")
    gamma_sq = c * gamma_t
    den = 2.0 * (beta_l + k * (one + poly_mul(beta_l, beta_l)) + k * k * beta_l)
    alpha_t = a * den - poly_mul(gamma_sq, (1.0 + k * k) * one + 2.0 * k * beta_l)
    return half_fidelity_condition_array(alpha_t, alpha_t, (1.0 - k * k) * gamma_sq,
                                         k, den)


def l_max_condition_array(ch, r, n, geometry):
    """channel.l_max's nu_minus = 1 condition as a coefficient array:
    alpha - gamma - 1 (sym) or (alpha - 1)(beta - 1) - gamma^2 (asym)."""
    alpha, beta, gamma = tmst_polys_array(r, n, ch.n_th_env, ch.eta_ant, geometry)
    one = poly(1.0)
    if geometry == "sym":
        return alpha - gamma - one
    return poly_mul(alpha - one, beta - one) - poly_mul(gamma, gamma)


def blocks_bfs(mat):
    """The connected components of the symmetric pattern (mat != 0) |
    (mat != 0)^T, in order of their lowest index, by a breadth-first search:
    each component is grown from the lowest index not yet seen, and read
    off as a sorted index set."""
    nonzero = mat != 0
    linked = nonzero | nonzero.T
    unseen = np.ones(len(mat), dtype=bool)
    blocks = []
    while unseen.any():
        block = np.zeros(len(mat), dtype=bool)
        front = block.copy()
        front[np.argmax(unseen)] = True
        while front.any():
            block |= front
            front = linked[front].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def negativity_dense(rho, dims):
    """fock.negativity_fock through the full partial transpose:
    fock_ops.partial_transpose checks all of rho Hermitian and copies rho^Gamma,
    whose spectrum is read over the components of its own zero pattern."""
    pt = partial_transpose(rho, dims)
    blocks = blocks_bfs(pt)
    if len(blocks) < 2:
        ev = np.linalg.eigvalsh(pt)
    else:
        ev = np.concatenate([np.linalg.eigvalsh(pt[np.ix_(b, b)]) for b in blocks])
    return float(-np.sum(ev[ev < 0.0]))


def tmst_density_loop(r, n, n_max):
    """fock.tmst_density with one exponential per photon-number difference
    delta in [-n_max, n_max], each block u diag(p_a p_b) u^dag."""
    dim1 = n_max + 1
    p = thermal_density(n, n_max).diagonal().real
    rho = np.zeros((dim1 ** 2, dim1 ** 2), dtype=complex)
    for delta in range(-n_max, n_max + 1):
        ns = np.arange(0, n_max - abs(delta) + 1)
        amp = r * np.sqrt((ns[:-1] + abs(delta) + 1.0) * (ns[:-1] + 1.0))
        ub = _expm_antihermitian(np.diag(amp, -1) - np.diag(amp, 1))
        a, b = (ns + delta, ns) if delta >= 0 else (ns, ns - delta)
        flat = a * dim1 + b
        rho[np.ix_(flat, flat)] = (ub * (p[a] * p[b])) @ ub.conj().T
    return rho


def gaussian_density_moveaxis(state, n_max):
    """fock.gaussian_density's recurrence, each shift along an earlier axis
    j written with np.moveaxis of j to the front on every step."""
    n_axes = 2 * state.n_modes
    a, b, c = _bargmann(state)
    root = np.sqrt(np.arange(n_max + 1.0))
    g = np.zeros((n_max + 1,) * n_axes, dtype=complex)
    g[(0,) * n_axes] = c
    for i in range(n_axes):
        rest = (0,) * (n_axes - i - 1)
        weight = root[1:].reshape((-1,) + (1,) * (i - 1))
        for k in range(n_max):
            cur = g[(Ellipsis, k) + rest]
            new = b[i] * cur
            if k:
                new += a[i, i] * root[k] * g[(Ellipsis, k - 1) + rest]
            for j in range(i):
                np.moveaxis(new, j, 0)[1:] += (
                    a[i, j] * weight * np.moveaxis(cur, j, 0)[:-1])
            g[(Ellipsis, k + 1) + rest] = new / root[k + 1]
    dim = (n_max + 1) ** state.n_modes
    return g.reshape(dim, dim)
