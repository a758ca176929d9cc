"""Truncated Fock kets and operators: the brute-force routes that the
library's closed forms and cvmw.fock's density matrices are checked against.

Kets are tensors of shape (n_max+1,) * n_modes, recording their truncation
leakage, and operators dense arrays over the truncated space. The beam
splitter and the squeezer are built by exponentiating their generators,
displacements from their closed-form matrix elements. Beside numpy and the
standard library, it uses cvmw.fock's matrix exponential, its Hermitian
check and its deflated Hermitian spectrum.
"""

from dataclasses import dataclass
from math import lgamma

import numpy as np

from cvmw.fock import (MAX_DENSE_DIM, _deflated_eigvalsh, _expm_antihermitian,
                       _require_hermitian)


def destroy(n_max):
    """Single-mode annihilation operator on the truncated space."""
    n = np.arange(1, n_max + 1, dtype=float)
    return np.diag(np.sqrt(n), k=1).astype(complex)


def quadrature_ops(n_max):
    """(x, p) single-mode quadrature matrices, vacuum variance 1/2."""
    a = destroy(n_max)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    return x, p


def op_on_mode(op, mode, dims):
    """Embed a single-mode operator on the given mode of a product space."""
    out = np.array([[1.0 + 0j]])
    for j, d in enumerate(dims):
        out = np.kron(out, op if j == mode else np.eye(d, dtype=complex))
    return out


def displacement_element(m, n, alpha):
    """Closed-form matrix element <m|D(alpha)|n> of the displacement operator."""
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if alpha == 0:
        return 1.0 + 0j if m == n else 0.0 + 0j
    mag = abs(alpha)
    phase = np.angle(alpha)
    log_mag = np.log(mag)
    # the k-sum has a k-independent phase exp(i*phase*(m - n))
    pref = 0.5 * (lgamma(m + 1) - lgamma(n + 1)) - 0.5 * mag ** 2
    terms = []
    for k in range(n + 1):
        if m - k < 0:
            continue
        log_t = (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                 + (m + n - 2 * k) * log_mag - lgamma(m - k + 1))
        sign = -1.0 if (n - k) % 2 else 1.0
        terms.append((log_t, sign))
    top = max(t for t, _ in terms)
    acc = sum(s * np.exp(t - top) for t, s in terms)
    return acc * np.exp(pref + top) * np.exp(1j * phase * (m - n))


def displacement(alpha, n_max):
    """Dense D(alpha) assembled entrywise from the closed-form elements."""
    d = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            d[m, n] = displacement_element(m, n, alpha)
    return d


@dataclass
class FockKet:
    """Normalized truncated ket with the pre-normalization leakage recorded."""
    amplitudes: np.ndarray  # tensor of shape (n_max+1,) * n_modes
    leakage: float

    @property
    def n_modes(self):
        return self.amplitudes.ndim

    @property
    def n_max(self):
        return self.amplitudes.shape[0] - 1

    def density(self):
        v = self.amplitudes.reshape(-1)
        return np.outer(v, v.conj())


def tmsv_ket(r, n_max):
    """Two-mode squeezed vacuum, amplitudes tanh(r)^j / cosh(r) on |j, j>."""
    lam = np.tanh(r)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    coeff = lam ** np.arange(n_max + 1) / np.cosh(r)
    amps[np.arange(n_max + 1), np.arange(n_max + 1)] = coeff
    norm2 = float(np.sum(np.abs(coeff) ** 2))
    return FockKet(amps / np.sqrt(norm2), leakage=1.0 - norm2)


def photon_subtract(ket, k):
    """Apply a^k to every mode, renormalize; returns (ket, weight).

    weight is the squared norm of the unnormalized result, i.e. the
    expectation value of the ordered annihilation-power product.
    """
    if isinstance(k, int):
        k = (k,) * ket.n_modes
    amps = ket.amplitudes
    for mode, kk in enumerate(k):
        a_pow = np.linalg.matrix_power(destroy(ket.n_max), kk)
        amps = np.moveaxis(np.tensordot(a_pow, amps, axes=([1], [mode])), 0, mode)
    weight = float(np.sum(np.abs(amps) ** 2))
    if weight < 1e-300:
        raise ValueError("photon subtraction annihilated the state")
    return FockKet(amps / np.sqrt(weight), leakage=ket.leakage), weight


def bs_amplitude(m, j, tau):
    """Amplitude for |m, 0> -> |m-j, j> under a transmissivity-tau beam splitter."""
    if j < 0 or j > m:
        return 0.0
    log_c = 0.5 * (lgamma(m + 1) - lgamma(j + 1) - lgamma(m - j + 1))
    val = np.exp(log_c + 0.5 * (m - j) * np.log(tau) + 0.5 * j * np.log1p(-tau))
    return (-1.0) ** j * val


def ps_project(ket, tau, k):
    """Probabilistic photon subtraction on a two-mode ket.

    Each mode is mixed with a vacuum ancilla on a transmissivity-tau beam
    splitter and the ancilla is projected on |k>. Returns the renormalized
    ket and the success probability (within the truncated space).
    """
    if ket.n_modes != 2:
        raise ValueError("expected a two-mode ket")
    n_max = ket.n_max
    # row m of this matrix maps amplitude at |m> to |m - k|
    proj = np.zeros((n_max + 1, n_max + 1))
    for m in range(k, n_max + 1):
        proj[m - k, m] = bs_amplitude(m, k, tau)
    amps = np.tensordot(proj, ket.amplitudes, axes=([1], [0]))
    amps = np.moveaxis(np.tensordot(proj, amps, axes=([1], [1])), 0, 1)
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob < 1e-300:
        raise ValueError("projection has vanishing probability")
    return FockKet(amps / np.sqrt(prob), leakage=ket.leakage), prob


def beam_splitter_unitary(eta, n_max):
    """Two-mode beam-splitter unitary via the exponential of its generator.

    Matches cvmw.core.beam_splitter(eta): the Heisenberg map is
    a1 -> sqrt(eta) a1 + sqrt(1 - eta) a2.
    """
    theta = np.arccos(np.sqrt(eta))
    dims = (n_max + 1, n_max + 1)
    if dims[0] * dims[1] > MAX_DENSE_DIM:
        raise ValueError("truncated dimension too large for dense exponentiation")
    a1 = op_on_mode(destroy(n_max), 0, dims)
    a2 = op_on_mode(destroy(n_max), 1, dims)
    gen = theta * (a1.conj().T @ a2 - a1 @ a2.conj().T)
    return _expm_antihermitian(gen)


def squeeze_unitary(r, n_max):
    """Single-mode squeezer exp(r (a^2 - a^dag^2) / 2); x -> e^{-r} x."""
    a = destroy(n_max)
    return _expm_antihermitian(0.5 * r * (a @ a - a.conj().T @ a.conj().T))


def check_density(rho):
    """Hermiticity / positivity diagnostics; returns the trace deficit. The
    spectrum is read within EPS ||rho||_F in l1 (cvmw.fock's deflation)."""
    _require_hermitian(rho)
    ev = _deflated_eigvalsh(rho)
    if ev.min() < -1e-10:
        raise ValueError("density matrix has negative eigenvalues")
    return 1.0 - float(np.trace(rho).real)


def partial_transpose(rho, dims):
    """Partial transpose over the second subsystem of a bipartite density
    matrix, as a full copy."""
    d1, d2 = dims
    _require_hermitian(rho)
    t = rho.reshape(d1, d2, d1, d2)
    return np.transpose(t, (0, 3, 2, 1)).reshape(d1 * d2, d1 * d2)


def ket_negativity(ket):
    """Negativity of a pure bipartite ket via its Schmidt coefficients.

    For |psi> = sum_i s_i |u_i>|v_i>, the partial transpose has negative
    eigenvalues -s_i s_j (i < j), so N = ((sum_i s_i)^2 - 1) / 2.
    """
    if ket.n_modes != 2:
        raise ValueError("expected a two-mode ket")
    s = np.linalg.svd(ket.amplitudes, compute_uv=False)
    return float((np.sum(s) ** 2 - 1.0) / 2.0)


def ptrace(rho, dims, keep):
    """Partial trace of a multimode density matrix onto the kept modes."""
    n = len(dims)
    t = rho.reshape(*dims, *dims)
    traced = [m for m in range(n) if m not in keep]
    for m in sorted(traced, reverse=True):
        t = np.trace(t, axis1=m, axis2=m + t.ndim // 2)
    d = int(np.prod([dims[m] for m in keep]))
    return t.reshape(d, d)


def uhlmann_fidelity(rho1, rho2):
    w, v = np.linalg.eigh(rho1)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ev = np.linalg.eigvalsh(s @ rho2 @ s)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def char_fn(state, r_point, dims=None):
    """Characteristic function Tr[rho D_{-d(r)}] on the truncated space.

    Accepts a FockKet, or a one-mode density matrix with its dims.
    """
    # exp(-i r Omega rhat) equals the displacement D(alpha) at
    # alpha = (x + ip)/sqrt(2) for each mode
    r = np.asarray(r_point, dtype=float).reshape(-1)
    if isinstance(state, FockKet):
        n_max = state.n_max
        amps = state.amplitudes
        for j in range(state.n_modes):
            alpha = (r[2 * j] + 1j * r[2 * j + 1]) / np.sqrt(2.0)
            d = displacement(alpha, n_max)
            amps = np.moveaxis(np.tensordot(d, amps, axes=([1], [j])), 0, j)
        return complex(np.vdot(state.amplitudes, amps))
    if dims is None or len(dims) != 1:
        raise ValueError("density-matrix input is one mode with its dims")
    d = displacement((r[0] + 1j * r[1]) / np.sqrt(2.0), dims[0] - 1)
    return complex(np.einsum("ab,ba->", state, d))


def qfi_spectral(rho_fn, lambda0, step):
    """Spectral quantum Fisher information for a truncated density family.

    Central-difference derivative, eigenbasis of rho(lambda0); terms with
    eigenvalue sums below 1e-12 are dropped (dark subspace).
    """
    rho0 = rho_fn(lambda0)
    rho_p = rho_fn(lambda0 + step)
    rho_m = rho_fn(lambda0 - step)
    drift = abs(np.trace(rho_p).real - np.trace(rho_m).real)
    if drift > 1e-9 * abs(np.trace(rho0).real):
        raise ValueError("finite-difference step too large: trace drift %.3g" % drift)
    drho = (rho_p - rho_m) / (2.0 * step)
    evals, vecs = np.linalg.eigh(rho0)
    mat = vecs.conj().T @ drho @ vecs
    denom = evals[:, None] + evals[None, :]
    mask = denom > 1e-12
    h = 2.0 * np.sum(np.abs(mat[mask]) ** 2 / denom[mask])
    return float(h)
