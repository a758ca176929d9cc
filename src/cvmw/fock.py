"""Truncated photon-number-basis engine used as the brute-force oracle.

Everything here works on dense arrays over a Hilbert space truncated at
n_max photons per mode. Kets are stored as tensors of shape
(n_max+1,) * n_modes, density matrices as (D, D) arrays with D the total
dimension. Operations report truncation leakage so tests can pick n_max
on principled grounds. Gaussian unitaries are built from the Bloch-Messiah
factors of their symplectic matrix: passive blocks and single-mode
squeezers.
"""

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .core import omega

MAX_DENSE_DIM = 5000


def destroy(n_max):
    """Single-mode annihilation operator on the truncated space."""
    n = np.arange(1, n_max + 1, dtype=float)
    return np.diag(np.sqrt(n), k=1).astype(complex)


def number_op(n_max):
    return np.diag(np.arange(n_max + 1, dtype=float)).astype(complex)


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
    if not terms:
        return 0.0 + 0j
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
    ket = FockKet(amps / np.sqrt(norm2), leakage=1.0 - norm2)
    return ket


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
    """Probabilistic photon subtraction oracle on a two-mode ket.

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

    Matches core.beam_splitter(eta): the Heisenberg map is
    a1 -> sqrt(eta) a1 + sqrt(1 - eta) a2.
    """
    from scipy.linalg import expm

    theta = np.arccos(np.sqrt(eta))
    dims = (n_max + 1, n_max + 1)
    if dims[0] * dims[1] > MAX_DENSE_DIM:
        raise ValueError("truncated dimension too large for dense exponentiation")
    a1 = op_on_mode(destroy(n_max), 0, dims)
    a2 = op_on_mode(destroy(n_max), 1, dims)
    gen = theta * (a1.conj().T @ a2 - a1 @ a2.conj().T)
    return expm(gen)


def thermal_density(n_th, n_max):
    if n_th == 0:
        rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    k = np.arange(n_max + 1, dtype=float)
    p = (n_th / (1.0 + n_th)) ** k / (1.0 + n_th)
    return np.diag(p).astype(complex)


def partial_transpose(rho, dims):
    """Partial transpose over the second subsystem of a bipartite density matrix."""
    d1, d2 = dims
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    t = rho.reshape(d1, d2, d1, d2)
    return np.transpose(t, (0, 3, 2, 1)).reshape(d1 * d2, d1 * d2)


def negativity_fock(rho, dims):
    """Sum of |negative eigenvalues| of the partial transpose."""
    pt = partial_transpose(rho, dims)
    ev = np.linalg.eigvalsh(pt)
    return float(-np.sum(ev[ev < 0.0]))


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


def expect(op, rho):
    return complex(np.trace(op @ rho))


def check_density(rho, tol_trace=1e-8):
    """Hermiticity / trace / positivity diagnostics; returns the trace deficit."""
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    ev = np.linalg.eigvalsh(rho)
    if ev.min() < -1e-10:
        raise ValueError("density matrix has negative eigenvalues")
    return 1.0 - float(np.trace(rho).real)


def uhlmann_fidelity(rho1, rho2):
    from scipy.linalg import sqrtm

    s = sqrtm(rho1)
    inner = sqrtm(s @ rho2 @ s)
    return float(np.trace(inner).real ** 2)


def williamson(sigma):
    """Williamson normal form: Sigma = S diag(nu_1, nu_1, ...) S^T.

    Returns (s_matrix, nu) with nu the symplectic eigenvalues ascending.
    """
    from scipy.linalg import schur, sqrtm

    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    w = omega(n)
    root = sqrtm(sigma).real
    t = root @ w @ root  # antisymmetric
    s_block, o = schur(t, output="real")
    # normalize each 2x2 Schur block to [[0, nu], [-nu, 0]] with nu > 0
    for j in range(n):
        if s_block[2 * j, 2 * j + 1] < 0:
            o[:, [2 * j, 2 * j + 1]] = o[:, [2 * j + 1, 2 * j]]
            s_block[2 * j, 2 * j + 1] = -s_block[2 * j, 2 * j + 1]
    nu = np.array([s_block[2 * j, 2 * j + 1] for j in range(n)])
    order = np.argsort(nu)
    perm = np.zeros((2 * n, 2 * n))
    for new, old in enumerate(order):
        perm[2 * old, 2 * new] = 1.0
        perm[2 * old + 1, 2 * new + 1] = 1.0
    o = o @ perm
    nu = nu[order]
    scale = np.repeat(1.0 / np.sqrt(nu), 2)
    s = root @ o @ np.diag(scale)
    return s, nu


def _complex_mode_matrix(k_matrix):
    """N x N unitary acting on the annihilation operators of a passive map."""
    n = k_matrix.shape[0] // 2
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        w[j, 2 * j] = w[n + j, 2 * j] = 1.0 / np.sqrt(2.0)
        w[j, 2 * j + 1] = 1j / np.sqrt(2.0)
        w[n + j, 2 * j + 1] = -1j / np.sqrt(2.0)
    c = w @ k_matrix @ w.conj().T
    if np.max(np.abs(c[:n, n:])) > 1e-9:
        raise ValueError("matrix is not passive")
    return c[:n, :n]


def passive_unitary(k_matrix, n_max):
    """Fock unitary of a photon-number-conserving (orthogonal symplectic) map.

    Exponentiates the number-conserving generator inside each total-photon
    block, which keeps the cost polynomial in n_max.
    """
    from scipy.linalg import expm, logm

    u = _complex_mode_matrix(np.asarray(k_matrix, dtype=float))
    n_modes = u.shape[0]
    h = 1j * logm(u)
    h = 0.5 * (h + h.conj().T)
    dim1 = n_max + 1
    if n_modes == 1:
        phases = np.exp(-1j * h[0, 0].real * np.arange(dim1))
        return np.diag(phases).astype(complex)
    if n_modes != 2:
        raise ValueError("passive_unitary supports one or two modes")
    out = np.zeros((dim1 ** 2, dim1 ** 2), dtype=complex)
    for total in range(2 * n_max + 1):
        lo, hi = max(0, total - n_max), min(total, n_max)
        ms = np.arange(lo, hi + 1)
        size = ms.size
        block = np.zeros((size, size), dtype=complex)
        for i, m in enumerate(ms):
            block[i, i] = h[0, 0].real * m + h[1, 1].real * (total - m)
            if i + 1 < size:
                amp = np.sqrt((m + 1.0) * (total - m))
                block[i + 1, i] = h[0, 1] * amp
                block[i, i + 1] = h[1, 0] * amp
        ub = expm(-1j * block)
        flat = ms * dim1 + (total - ms)
        out[np.ix_(flat, flat)] = ub
    return out


def squeeze_unitary(r, n_max):
    """Single-mode squeezer exp(r (a^2 - a^dag^2) / 2); x -> e^{-r} x."""
    from scipy.linalg import expm

    a = destroy(n_max)
    return expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))


def two_mode_squeeze_unitary(r, n_max):
    """Two-mode squeezer exp(r (a^dag b^dag - a b)) on the truncated space.

    The generator conserves the photon-number difference, so it is
    exponentiated block by block; matches core.two_mode_squeezer(r).
    """
    from scipy.linalg import expm

    dim1 = n_max + 1
    out = np.zeros((dim1 ** 2, dim1 ** 2), dtype=complex)
    for delta in range(-n_max, n_max + 1):
        ns = np.arange(0, n_max - abs(delta) + 1)
        size = ns.size
        gen = np.zeros((size, size))
        for i in range(size - 1):
            n = ns[i]
            amp = r * np.sqrt((n + abs(delta) + 1.0) * (n + 1.0))
            gen[i + 1, i] = amp
            gen[i, i + 1] = -amp
        ub = expm(gen)
        if delta >= 0:
            flat = (ns + delta) * dim1 + ns
        else:
            flat = ns * dim1 + (ns - delta)
        out[np.ix_(flat, flat)] = ub
    return out


def tmst_density(r, n, n_max):
    """Two-mode squeezed thermal state built from its definition.

    The two-mode squeeze unitary is applied to a pair of thermal states
    with n photons each; matches core.tmst(r, n) at the covariance level.
    """
    rho_th = np.kron(thermal_density(n, n_max), thermal_density(n, n_max))
    u = two_mode_squeeze_unitary(r, n_max)
    return u @ rho_th @ u.conj().T


def bloch_messiah(s_matrix, tol=1e-9):
    """Euler decomposition S = K1 Z K2 of a real symplectic matrix.

    K1 and K2 are orthogonal symplectic (passive), Z is a direct sum of
    single-mode squeezers diag(e^{-r_j}, e^{r_j}); returns (k1, rs, k2).
    """
    from scipy.linalg import sqrtm

    s_matrix = np.asarray(s_matrix, dtype=float)
    n = s_matrix.shape[0] // 2
    w = omega(n)
    p = sqrtm(s_matrix @ s_matrix.T).real
    evals, evecs = np.linalg.eigh(p)
    cols = []
    rs = []
    used = np.zeros(evals.size, dtype=bool)
    order = np.argsort(-evals)  # pair from the largest eigenvalue down
    for idx in order:
        if used[idx] or evals[idx] < 1.0 + tol:
            continue
        v = evecs[:, idx]
        partner = -w @ v  # eigenvector with eigenvalue 1/z
        cols.extend([v, partner])
        rs.append(-np.log(evals[idx]))  # Z block diag(z, 1/z) = squeezer(-ln z)
        used[idx] = True
        # mark one matching 1/z eigenvector as consumed
        target = 1.0 / evals[idx]
        cands = [j for j in range(evals.size)
                 if not used[j] and abs(evals[j] - target) < 1e-6 * max(1.0, target)]
        if not cands:
            raise ValueError("eigenvalues of the polar factor do not pair up")
        best = max(cands, key=lambda j: abs(evecs[:, j] @ partner))
        used[best] = True
    # remaining eigenvectors span the unit-eigenvalue (passive) subspace
    rest = [evecs[:, j] for j in range(evals.size) if not used[j]]
    while rest:
        basis = np.array(rest).T
        v = basis[:, 0]
        partner = -w @ v
        cols.extend([v, partner])
        rs.append(0.0)
        pair = np.column_stack([v, partner])
        keep = basis - pair @ (pair.T @ basis)
        if len(rest) > 2:
            uu, ss, _ = np.linalg.svd(keep, full_matrices=False)
            rest = [uu[:, j] for j in range(ss.size) if ss[j] > 1e-7]
        else:
            rest = []
    k1 = np.column_stack(cols)
    z = np.zeros((2 * n, 2 * n))
    for j, r_j in enumerate(rs):
        z[2 * j, 2 * j] = np.exp(-r_j)
        z[2 * j + 1, 2 * j + 1] = np.exp(r_j)
    o = np.linalg.solve(p, s_matrix)  # orthogonal symplectic factor of S = P O
    k2 = k1.T @ o
    return k1, np.array(rs), k2


def unitary_from_symplectic(s_matrix, n_max):
    """Fock-space unitary implementing a symplectic transformation.

    Factors S = K1 Z K2 through the Bloch-Messiah (Euler) decomposition
    (S. L. Braunstein, PRA 71, 055801 (2005)) and exponentiates only the
    passive blocks and the single-mode squeezers, so the result does not
    depend on which symplectic basis williamson returns.
    """
    s_matrix = np.asarray(s_matrix, dtype=float)
    n = s_matrix.shape[0] // 2
    if (n_max + 1) ** n > MAX_DENSE_DIM:
        raise ValueError("truncated dimension too large for dense exponentiation")
    k1, rs, k2 = bloch_messiah(s_matrix)
    u_z = np.array([[1.0 + 0j]])
    for r_j in rs:
        u_z = np.kron(u_z, squeeze_unitary(r_j, n_max))
    return passive_unitary(k1, n_max) @ u_z @ passive_unitary(k2, n_max)


def gaussian_density(state, n_max):
    """Dense density matrix of a Gaussian state on the truncated space."""
    s, nu = williamson(state.sigma)
    rho = np.array([[1.0 + 0j]])
    for v in nu:
        rho = np.kron(rho, thermal_density((v - 1.0) / 2.0, n_max))
    u = unitary_from_symplectic(s, n_max)
    rho = u @ rho @ u.conj().T
    if np.any(np.abs(state.d) > 1e-14):
        dims = (n_max + 1,) * state.n_modes
        dop = np.array([[1.0 + 0j]])
        for j in range(state.n_modes):
            alpha = (state.d[2 * j] + 1j * state.d[2 * j + 1]) / np.sqrt(2.0)
            dop = np.kron(dop, displacement(alpha, n_max))
        rho = dop @ rho @ dop.conj().T
    return rho


def char_fn(state, r_point, dims=None):
    """Characteristic function Tr[rho D_{-d(r)}] on the truncated space.

    Accepts a FockKet or a density matrix (the latter with its dims).
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
    if dims is None:
        raise ValueError("density-matrix input requires dims")
    n_max = dims[0] - 1
    ds = [displacement((r[2 * j] + 1j * r[2 * j + 1]) / np.sqrt(2.0), n_max)
          for j in range(len(dims))]
    t = state.reshape(*dims, *dims)
    if len(dims) == 1:
        return complex(np.einsum("ab,ba->", t, ds[0]))
    if len(dims) == 2:
        return complex(np.einsum("abcd,ca,db->", t, ds[0], ds[1]))
    raise ValueError("char_fn supports at most two modes")


def qfi_spectral(rho_fn, lambda0, step, eig_floor=1e-12):
    """Spectral quantum Fisher information for a truncated density family.

    Central-difference derivative, eigenbasis of rho(lambda0); terms with
    eigenvalue sums below eig_floor are dropped (dark subspace).
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
    mask = denom > eig_floor
    h = 2.0 * np.sum(np.abs(mat[mask]) ** 2 / denom[mask])
    return float(h)
