"""Truncated photon-number-basis engine used as the brute-force oracle.

Everything here works on dense arrays over a Hilbert space truncated at
n_max photons per mode. Kets are stored as tensors of shape
(n_max+1,) * n_modes, density matrices as (D, D) arrays with D the total
dimension. The thermal and two-mode squeezed thermal states have real
entries and are float64; the displaced Gaussian states are complex.
negativity_fock and check_density take their spectra block by block, over
the connected components of the matrix's exact-zero pattern, so a state
that conserves a photon number pays for its largest block rather than for
D, and a real block takes the real eigensolver. negativity_fock never
forms the partial transpose: it transposes the zero pattern only, the one
boolean D x D array, and gathers each block of rho^Gamma from rho, the only
numeric D x D array. Operations report truncation leakage so tests can pick
n_max on principled grounds.
Gaussian density matrices come from the Hermite recurrence of their
Bargmann generating function; the two-mode squeezed thermal state, the
squeezers and the beam splitter are built from their definitions,
exponentiating the generator on the truncated space. The module uses
numpy and the standard library only, so it shares no code with the closed
forms it checks.
"""

from dataclasses import dataclass
from math import lgamma

import numpy as np

MAX_DENSE_DIM = 5000


def _expm_antihermitian(gen):
    """exp(gen) = V e^{-iw} V^dag, where i gen = V diag(w) V^dag."""
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


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
    theta = np.arccos(np.sqrt(eta))
    dims = (n_max + 1, n_max + 1)
    if dims[0] * dims[1] > MAX_DENSE_DIM:
        raise ValueError("truncated dimension too large for dense exponentiation")
    a1 = op_on_mode(destroy(n_max), 0, dims)
    a2 = op_on_mode(destroy(n_max), 1, dims)
    gen = theta * (a1.conj().T @ a2 - a1 @ a2.conj().T)
    return _expm_antihermitian(gen)


def thermal_density(n_th, n_max):
    k = np.arange(n_max + 1, dtype=float)
    p = (n_th / (1.0 + n_th)) ** k / (1.0 + n_th)
    return np.diag(p)


def _require_hermitian(mat):
    """Raise unless max |mat - mat^dag| <= 1e-10, taken 128 rows at a time
    so no full-size temporary is made."""
    slab = 128
    for i in range(0, len(mat), slab):
        if np.abs(mat[i:i + slab] - mat[:, i:i + slab].conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")


def _blocks(mat):
    """Index sets of the connected components of the graph with an edge
    between i and j wherever mat[i, j] != 0, each sorted, in order of their
    lowest index. A boolean mat is that pattern itself, and no other D x D
    array is formed.

    A breadth-first search from the lowest index no search has reached
    expands its front through rows of the pattern only, since a row is
    contiguous and a column strided. An edge i -> j is seen from row i: if an
    earlier search holds j, the two searches are one component, and the
    earlier one's indices take this search's label. So every edge is
    followed whichever of its two entries is nonzero.
    """
    linked = mat if mat.dtype == bool else mat != 0
    label = np.full(len(mat), -1)
    while (label < 0).any():
        start = int(np.argmax(label < 0))
        label[start] = start
        front = np.array([start])
        while len(front):
            reach = np.flatnonzero(linked[front].any(axis=0))
            held = label[reach]
            earlier = held[(held >= 0) & (held != start)]
            if len(earlier):
                label[np.isin(label, earlier)] = start
            front = reach[held < 0]
            label[front] = start
    order = np.argsort(label, kind="stable")  # by label, then by index
    first = np.unique(label[order], return_index=True)[1]
    return sorted(np.split(order, first[1:]), key=lambda b: b[0])


def _block_eigvalsh(pattern, gather):
    """Eigenvalues of a Hermitian matrix whose nonzero entries lie on
    pattern, concatenated over _blocks(pattern); gather(b) returns the
    matrix on the index set b, which is checked Hermitian before its
    eigvalsh.

    A matrix that is block-diagonal under a permutation has the union of
    its blocks' spectra. Every entry off the blocks is zero, as is its
    mirror, so the blocks' checks together are _require_hermitian of the
    whole matrix.
    """
    spectra = []
    for b in _blocks(pattern):
        block = gather(b)
        _require_hermitian(block)
        spectra.append(np.linalg.eigvalsh(block))
    return np.concatenate(spectra)


def _eigvalsh(mat):
    """Eigenvalues of a Hermitian matrix, block by block (_block_eigvalsh):
    the spectrum eigvalsh(mat) reads, unsorted."""
    return _block_eigvalsh(mat, lambda b: mat if len(b) == len(mat)
                           else mat[np.ix_(b, b)])


def partial_transpose(rho, dims):
    """Partial transpose over the second subsystem of a bipartite density
    matrix, as a full copy; negativity_fock never forms it."""
    d1, d2 = dims
    _require_hermitian(rho)
    t = rho.reshape(d1, d2, d1, d2)
    return np.transpose(t, (0, 3, 2, 1)).reshape(d1 * d2, d1 * d2)


def negativity_fock(rho, dims):
    """Sum of |negative eigenvalues| of the partial transpose over the
    second subsystem, read block by block from rho.

    Only the nonzero pattern of rho is partially transposed; each block of
    rho^Gamma is gathered through rho^Gamma[(a, b), (a', b')] =
    rho[(a, b'), (a', b)]. rho^Gamma - (rho^Gamma)^dag is (rho - rho^dag)^Gamma,
    a permutation of its entries, so the check per block is the check of rho.
    """
    d1, d2 = dims
    t = rho.reshape(d1, d2, d1, d2)
    # written in C order, so the reshape is a view: one boolean D x D array
    pattern = np.not_equal(t.transpose(0, 3, 2, 1), 0, order="C").reshape(
        d1 * d2, d1 * d2)

    def gather(b):
        a, c = np.divmod(b, d2)
        return t[a[:, None], c[None, :], a[None, :], c[:, None]]

    ev = _block_eigvalsh(pattern, gather)
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


def check_density(rho):
    """Hermiticity / trace / positivity diagnostics; returns the trace deficit."""
    ev = _eigvalsh(rho)
    if ev.min() < -1e-10:
        raise ValueError("density matrix has negative eigenvalues")
    return 1.0 - float(np.trace(rho).real)


def uhlmann_fidelity(rho1, rho2):
    w, v = np.linalg.eigh(rho1)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ev = np.linalg.eigvalsh(s @ rho2 @ s)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def squeeze_unitary(r, n_max):
    """Single-mode squeezer exp(r (a^2 - a^dag^2) / 2); x -> e^{-r} x."""
    a = destroy(n_max)
    return _expm_antihermitian(0.5 * r * (a @ a - a.conj().T @ a.conj().T))


def tmst_density(r, n, n_max):
    """exp(r (a^dag b^dag - a b)) applied to two thermal modes with n photons
    each; matches core.tmst(r, n). The generator conserves the photon-number
    difference, so rho is filled block by block, u diag(p_a p_b) u^dag. The
    generator depends on |delta| only and p_a p_b is symmetric, so the block
    of -delta is that of delta, built once and written at both index sets.
    At real r every entry is real: rho is float64, each block the real part
    of its complex product.
    """
    dim1 = n_max + 1
    p = thermal_density(n, n_max).diagonal()
    rho = np.zeros((dim1 ** 2, dim1 ** 2))
    for delta in range(n_max + 1):
        ns = np.arange(0, n_max - delta + 1)
        amp = r * np.sqrt((ns[:-1] + delta + 1.0) * (ns[:-1] + 1.0))
        ub = _expm_antihermitian(np.diag(amp, -1) - np.diag(amp, 1))
        block = ((ub * (p[ns + delta] * p[ns])) @ ub.conj().T).real
        for flat in ((ns + delta) * dim1 + ns, ns * dim1 + ns + delta):
            rho[np.ix_(flat, flat)] = block
    return rho


def _bargmann(state):
    """(A, b, C) of C exp(z^T A z / 2 + b^T z), z = (alpha*, beta), which
    equals <alpha|rho|beta> exp((|alpha|^2 + |beta|^2) / 2).

    Q = (T Sigma T^dag + I) / 2 is the covariance of the Husimi function in
    the (a, a^dag) basis, T the map from (x1, p1, ...) to (a_1, ..., a_1^dag, ...).
    """
    n = state.n_modes
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        t[[j, n + j], 2 * j] = 1.0 / np.sqrt(2.0)
        t[[j, n + j], 2 * j + 1] = np.array([1j, -1j]) / np.sqrt(2.0)
    q = 0.5 * (t @ state.sigma @ t.conj().T + np.eye(2 * n))
    q_inv = np.linalg.inv(q)
    swap = np.roll(np.eye(2 * n), n, axis=0)
    a = (np.eye(2 * n) - q_inv) @ swap
    d = t @ state.d
    c = np.exp(-0.5 * (d.conj() @ q_inv @ d).real) / np.sqrt(np.linalg.det(q).real)
    return 0.5 * (a + a.T), q_inv @ d, c


def gaussian_density(state, n_max):
    """Dense density matrix of a Gaussian state on the truncated space.

    <m|rho|n> = G[m, n] for the array G of Taylor coefficients (over
    sqrt(k!)) of the Bargmann function, filled by the recurrence
    G[k + e_i] = (b_i G[k] + sum_j A_ij sqrt(k_j) G[k - e_j]) / sqrt(k_i + 1)
    one axis at a time (F. M. Miatto and N. Quesada, Quantum 4, 366 (2020)).
    Each entry is exact, so the result is the principal block of rho.
    """
    n_axes = 2 * state.n_modes
    if (n_max + 1) ** state.n_modes > MAX_DENSE_DIM:
        raise ValueError("truncated dimension too large for a dense density matrix")
    a, b, c = _bargmann(state)
    root = np.sqrt(np.arange(n_max + 1.0))
    g = np.zeros((n_max + 1,) * n_axes, dtype=complex)
    g[(0,) * n_axes] = c
    for i in range(n_axes):
        # axes before i are complete; axes after i stay at index 0. Along
        # each earlier axis j, entry k_j + 1 of new takes A_ij sqrt(k_j + 1)
        # times entry k_j of cur: index tuples and weights built once per axis
        rest = (0,) * (n_axes - i - 1)
        shifts = [((slice(None),) * j + (slice(1, None),),
                   (slice(None),) * j + (slice(None, -1),),
                   a[i, j] * root[1:].reshape((-1,) + (1,) * (i - 1 - j)))
                  for j in range(i)]
        for k in range(n_max):
            cur = g[(Ellipsis, k) + rest]
            new = b[i] * cur
            if k:
                new += a[i, i] * root[k] * g[(Ellipsis, k - 1) + rest]
            for up, down, weight in shifts:
                new[up] += weight * cur[down]
            g[(Ellipsis, k + 1) + rest] = new / root[k + 1]
    dim = (n_max + 1) ** state.n_modes
    return g.reshape(dim, dim)


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
