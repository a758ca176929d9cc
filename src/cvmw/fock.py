"""Truncated photon-number-basis density matrices and their negativity:
the brute-force check of the Gaussian closed forms.

Density matrices are dense (D, D) arrays over a Hilbert space truncated
at n_max photons per mode, D the total dimension. The thermal and two-mode
squeezed thermal states have real entries and are float64; the displaced
Gaussian states are complex. negativity_fock takes its spectrum block by
block, over the connected components of the matrix's exact-zero pattern,
so a state that conserves a photon number pays for its largest block
rather than for D, and a real block takes the real eigensolver. It never
forms the partial transpose: it transposes the zero pattern only, the one
boolean D x D array, and gathers each block of rho^Gamma from rho, the only
numeric D x D array. Each block B is solved without its k lightest rows and
columns, k the largest with 4 k s_k <= (EPS ||B||_F)^2 for s_k the sum of
the k smallest squared row norms, and k zeros stand in for their
eigenvalues: the spectrum, and so the negativity, moves by at most
EPS ||B||_F, below the rounding of the full solve. The displaced, noisy
two-mode squeezed thermal states of the benchmark's oracle drop a fifth to
a half of their 441 rows at n_max 20; the two-mode squeezed thermal blocks
drop none and keep their bits.
Gaussian density matrices come from the Hermite recurrence of their
Bargmann generating function; the two-mode squeezed thermal state is built
from its definition, exponentiating the squeezing generator on the
truncated space. The module uses numpy and the standard library only, so it
shares no code with the closed forms it checks. The Fock kets and
operators that tests compare against (subtraction, beam-splitter and
squeezing unitaries, displacements, partial trace and transpose, spectral
QFI) live in tests/oracles/fock_ops.py.
"""

import numpy as np

MAX_DENSE_DIM = 5000
EPS, TINY = 2.0 ** -52, 2.0 ** -1022  # float64: the gap above 1, the least normal


def _expm_antihermitian(gen):
    """exp(gen) = V e^{-iw} V^dag, where i gen = V diag(w) V^dag."""
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


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


def _deflated_eigvalsh(block):
    """Spectrum of a Hermitian block, unsorted, to within EPS ||block||_F
    in l1: the eigvalsh of the block less its k lightest rows and columns,
    then k zeros.

    With w_i the squared row norms and s_k the sum of the k smallest, k is
    the largest with 4 k s_k <= (EPS ||block||_F)^2. The part zeroed, E, has
    rank <= 2k and ||E||_F^2 <= 2 s_k, so ||E||_tr <= 2 sqrt(k s_k), which
    bounds the l1 distance between the spectra (Mirsky's theorem in the
    trace norm; R. Bhatia, Matrix Analysis, 1997). A block whose lightest
    row breaks the bound, or whose bound under- or overflows, is solved
    whole with no sort.
    """
    w = np.vecdot(block, block).real  # squared row norms, with no temporary
    weights = w.tolist()  # Python's sum and min: half numpy's cost on a small block
    tol = EPS * EPS * sum(weights)
    if not (TINY <= tol < np.inf and 4.0 * min(weights) <= tol):
        return np.linalg.eigvalsh(block)
    order = np.argsort(w, kind="stable")
    k = np.count_nonzero(4.0 * np.arange(1, len(w) + 1) * np.cumsum(w[order]) <= tol)
    keep = np.sort(order[k:])
    return np.concatenate([np.linalg.eigvalsh(block[np.ix_(keep, keep)]), np.zeros(k)])


def _block_eigvalsh(pattern, gather):
    """Eigenvalues of a Hermitian matrix whose nonzero entries lie on
    pattern, concatenated over _blocks(pattern), each block's to within
    EPS times its Frobenius norm in l1 (_deflated_eigvalsh); gather(b)
    returns the matrix on the index set b, which is checked Hermitian
    before its spectrum is taken.

    A matrix that is block-diagonal under a permutation has the union of
    its blocks' spectra. Every entry off the blocks is zero, as is its
    mirror, so the blocks' checks together are _require_hermitian of the
    whole matrix.
    """
    spectra = []
    for b in _blocks(pattern):
        block = gather(b)
        _require_hermitian(block)
        spectra.append(_deflated_eigvalsh(block))
    return np.concatenate(spectra)


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
