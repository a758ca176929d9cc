"""Independent routes to library quantities: the same states and numbers
built from their definitions instead of the library's closed forms."""

import numpy as np

from cvmw.bifreq import bifreq_probe
from cvmw.channel import (AirChannel, eta_eff, poly, poly_mul, root_distance,
                          tmst_polys)
from cvmw.core import (GaussianState, apply, beam_splitter, omega, partial_trace,
                       thermal, tmst)
from cvmw.entanglement import BipartiteCM
from cvmw.illumination import eta_eff as qi_eta_eff, qi_probe
from cvmw.teleport import BEYOND_MAX, MAX_DISTANCE, ROOT_GRID, ROOT_XTOL, illinois


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
    return illinois(excess, 0.0, MAX_DISTANCE, at_source, at_max, ROOT_XTOL)


def classical_limit_array_bracket(resource):
    """A numeric classical-limit distance from one array call: the excess
    F - 1/2 on all of ROOT_GRID, which must be finite, brackets the first
    crossing, and Illinois narrows that cell to ROOT_XTOL. 0 when the source
    fidelity is at most 1/2; ValueError when no point crosses."""
    excess = resource.fidelity(ROOT_GRID) - 0.5
    if excess[0] <= 0.0:
        return 0.0
    if not np.isfinite(excess).all():
        raise ValueError("non-finite fidelity on the bracketing grid")
    i = np.argmax(excess <= 0.0)
    if i == 0:
        raise ValueError(BEYOND_MAX)
    return illinois(lambda length: resource.fidelity(length) - 0.5,
                    ROOT_GRID[i - 1], ROOT_GRID[i], excess[i - 1], excess[i], ROOT_XTOL)


def l_max_quartic(ch, r, n):
    """channel.l_max's asymmetric reach from the whole nu_minus = 1 condition
    on the standard-form polynomials: 1 - (alpha^2 + beta^2 + 2 gamma^2) +
    (alpha beta - gamma^2)^2 = 0, a quartic in u, solved by its companion
    matrix. Assumes an entangled source, mu > 0 and n_th > 0."""
    alpha, beta, gamma = tmst_polys(r, n, ch.n_th_env, ch.eta_ant, "asym")
    gamma_sq = poly_mul(gamma, gamma)
    det_root = poly_mul(alpha, beta) - gamma_sq
    condition = (poly(1.0) - poly_mul(alpha, alpha) - poly_mul(beta, beta)
                 - 2.0 * gamma_sq + poly_mul(det_root, det_root))
    return root_distance(condition, ch.mu)
