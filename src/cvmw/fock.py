"""Truncated photon-number-basis density matrices and their negativity:
the brute-force check of the Gaussian closed forms.

Density matrices are dense (D, D) arrays over a Hilbert space truncated
at n_max photons per mode, D the total dimension. The thermal and two-mode
squeezed thermal states have real entries and are float64; the displaced
Gaussian states are complex. negativity_fock never forms the partial
transpose beside what it diagonalizes, and takes rho^Gamma's spectrum on
one of two routes, a real block with the real eigensolver:
- sectors: if rho is zero off its photon-number-difference (a - b) blocks,
  counted exactly, rho^Gamma is block-diagonal on the sectors a + b = N,
  whose index sets are closed-form and whose entries come from rho in one
  gather. Every two-mode squeezed thermal state takes this route, and pays
  for blocks at most n_max + 1 wide rather than for D;
- whole: otherwise rho^Gamma is one transposed copy of rho, solved as one
  block. If row 0 of rho^Gamma has no zero, rho cannot conserve a - b, and
  the test is skipped: the displaced Gaussian states of the benchmark's
  oracle take this shortcut.
Each block B is solved without its k lightest rows and columns, k the
largest with 2 (r_1 + ... + r_k) <= EPS ||B||_F for r_1 <= r_2 <= ... the
row norms, and k zeros stand in for their eigenvalues. The part zeroed
has trace norm at most twice that sum, so the spectrum, and the
negativity, move by at most EPS ||B||_F in l1 (Mirsky's theorem), below
the rounding of the full solve. The displaced, noisy two-mode squeezed
thermal states of the oracle drop a quarter to a half of their 441 rows at
n_max 20; the two-mode squeezed thermal sectors drop none.
Gaussian density matrices come from the Hermite recurrence of their
Bargmann generating function; the two-mode squeezed thermal state is built
from its definition, exponentiating the squeezing generator on the
truncated space. The module uses numpy and the standard library only, so it
shares no code with the closed forms it checks. The Fock kets and
operators that tests compare against (subtraction, beam-splitter and
squeezing unitaries, displacements, partial trace and transpose, spectral
QFI) live in tests/oracles/fock_ops.py.
"""

import functools

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


def _require_conjugates(x, y):
    """Raise unless max |x - conj(y)| <= 1e-10, for x and y the entries of
    a matrix and of its transpose. The components of the difference are
    read first: if none exceeds 7e-11 every modulus is below 1e-10, and if
    one exceeds 1e-10 so does its modulus, so the moduli are taken only in
    between."""
    diff = np.conjugate(y, order="C")
    np.subtract(x, diff, out=diff)
    parts = diff.view(diff.real.dtype)
    top = max(parts.max(), -parts.min())
    if top > 1e-10 or (top > 7e-11 and np.abs(diff).max() > 1e-10):
        raise ValueError("density matrix is not Hermitian")


def _require_hermitian(mat):
    """Raise unless max |mat - mat^dag| <= 1e-10. Entry (j, i) of the
    difference is minus the conjugate of entry (i, j), so each slab of 128
    rows is read against the columns from its first row on: half the matrix,
    and no full-size temporary."""
    slab = 128
    for i in range(0, len(mat), slab):
        _require_conjugates(mat[i:i + slab, i:], mat[i:, i:i + slab].T)


def _deflated_eigvalsh(block):
    """Spectrum of a Hermitian block, unsorted, to within EPS ||block||_F
    in l1: the eigvalsh of the block less its k lightest rows and columns,
    then k zeros.

    k is the largest with 2 (r_1 + ... + r_k) <= EPS ||block||_F, for
    r_1 <= r_2 <= ... the row norms. With Q the projection onto the k rows
    and P = 1 - Q, block - P block P = Q block + P block Q. Q block is a sum
    of k rank-one rows, so its trace norm is at most r_1 + ... + r_k, and
    P block Q has at most the trace norm of block Q, whose columns are the
    conjugated rows. So the trace norm of the part zeroed is at most
    2 (r_1 + ... + r_k), which bounds the l1 distance between the spectra
    (Mirsky's theorem in the trace norm; R. Bhatia, Matrix Analysis, 1997).
    By Cauchy-Schwarz, r_1 + ... + r_k <= sqrt(k s_k) for s_k the sum of
    the k smallest squared row norms, so k is never below the largest with
    4 k s_k <= (EPS ||block||_F)^2. k >= 1 exactly when 4 r_1^2 <=
    (EPS ||block||_F)^2: a block whose lightest row breaks that, or whose
    bound under- or overflows, is solved whole with no sort.
    """
    w = np.vecdot(block, block).real  # squared row norms, with no temporary
    weights = w.tolist()  # Python's sum and min: half numpy's cost on a small block
    tol = EPS * EPS * sum(weights)
    if not (TINY <= tol < np.inf and 4.0 * min(weights) <= tol):
        return np.linalg.eigvalsh(block)
    order = np.argsort(w, kind="stable")
    light = np.cumsum(np.sqrt(w[order]))
    k = np.count_nonzero(4.0 * light * light <= tol)
    keep = np.sort(order[k:])
    return np.concatenate([np.linalg.eigvalsh(block[np.ix_(keep, keep)]), np.zeros(k)])


def _one_block(t):
    """Whether row 0 of rho^Gamma, rho^Gamma[(0, 0), (a', b')] =
    rho[(0, b'), (a', 0)] = t[0, b', a', 0], has no zero, t the
    (d1, d2, d1, d2) view of rho. Then index 0 is linked to every index, so
    rho^Gamma is one block and rho, beyond D = 1, does not conserve a - b:
    negativity_fock takes it whole without testing that."""
    return bool(t[0, :, :, 0].all())


@functools.lru_cache(maxsize=8)
def _sectors(d1, d2):
    """The photon-number sectors a + b = N of a d1 x d2 system, and where
    the blocks of rho^Gamma on them sit in rho; read-only, cached by dims.

    Returns (sets, src, mirror, ends). sets[N] holds the flat indices
    a d2 + b with a + b = N, ascending; N ascending orders the sets by their
    lowest index. src holds the flat positions in rho of the entries of the
    blocks rho^Gamma[sets[N], sets[N]], one block after another, each
    row-major: rho^Gamma[(a, b), (a', b')] = rho[(a, b'), (a', b)], and
    a + b = a' + b' makes a - b' = a' - b, so src covers the photon-number-
    difference blocks of rho, each entry once. mirror[m] is the position in
    src of the transpose of entry m, and ends the end of each block in src.
    """
    dim = d1 * d2
    sets, src, mirror = [], [], []
    start = 0
    for total in range(d1 + d2 - 1):
        a = np.arange(max(0, total - d2 + 1), min(total, d1 - 1) + 1)
        b = total - a
        size = len(a)
        sets.append(a * d2 + b)
        src.append(((a[:, None] * d2 + b[None, :]) * dim
                    + a[None, :] * d2 + b[:, None]).ravel())
        mirror.append(start + np.arange(size * size).reshape(size, size).T.ravel())
        start += size * size
    src, mirror = np.concatenate(src), np.concatenate(mirror)
    ends = np.cumsum([len(s) ** 2 for s in sets])
    for array in (*sets, src, mirror, ends):
        array.flags.writeable = False
    return tuple(sets), src, mirror, ends


def _conserves_difference(rho, vals):
    """Whether rho is zero off its photon-number-difference (a - b) blocks,
    vals the entries on them: exactly, since those entries are among rho's,
    so the counts of nonzero words (entries, or their real and imaginary
    parts if complex) agree only if none lies off the blocks. The words are
    read as unsigned integers, which numpy counts at about twice its rate
    for floats; so a -0.0 off the blocks fails the test, and sends rho to a
    route that does not assume them."""
    def nonzero_words(x):
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
        return sum(np.count_nonzero(p.view("u%d" % p.itemsize)) for p in parts)
    return nonzero_words(rho) == nonzero_words(vals)


def negativity_fock(rho, dims):
    """Sum of |negative eigenvalues| of the partial transpose over the
    second subsystem, read from rho on one of two routes.

    - Sectors: rho conserves a - b (_conserves_difference), so rho^Gamma is
      block-diagonal on the sectors a + b = N (_sectors), gathered from rho
      in one take, each block solved on its own.
    - Whole: otherwise rho^Gamma is taken as one transposed copy of rho and
      solved as one block. A rho^Gamma whose row 0 has no zero (_one_block)
      takes this route without the conservation test.

    rho^Gamma - (rho^Gamma)^dag is (rho - rho^dag)^Gamma, a permutation of
    its entries, so each route's Hermitian check is the check of rho: on
    the sectors, every entry off them is zero, as is its mirror.
    """
    d1, d2 = dims
    t = rho.reshape(d1, d2, d1, d2)
    ev = None
    if not _one_block(t):
        sets, src, mirror, ends = _sectors(d1, d2)
        vals = np.take(rho, src)
        if _conserves_difference(rho, vals):
            _require_conjugates(vals, vals[mirror])
            ev = np.concatenate([
                _deflated_eigvalsh(v.reshape(len(s), len(s)))
                for s, v in zip(sets, np.split(vals, ends[:-1]))])
    if ev is None:
        block = t.transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)  # a copy
        _require_hermitian(block)
        ev = _deflated_eigvalsh(block)
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
    side = n_max + 1
    root = np.sqrt(np.arange(n_max + 1.0))
    g = np.zeros((side,) * n_axes, dtype=complex)
    g[(0,) * n_axes] = c
    for i in range(n_axes):
        # axes before i are complete; axes after i stay at index 0. Slab k
        # of axis i is worked on as a flat contiguous copy; along each
        # earlier axis j, flat entry m of new takes A_ij sqrt(k_j) times
        # entry m - step_j of cur, for k_j the index of m on axis j, and the
        # weight is 0 where k_j = 0. Weights and buffers are built once per
        # axis. Every complex product is written to a contiguous array: a
        # strided output takes numpy's scalar loop, which rounds otherwise
        rest = (0,) * (n_axes - i - 1)
        size = side ** i
        prev, cur, new, tmp = (np.empty(size, dtype=complex) for _ in range(4))
        cur[...] = g[(Ellipsis, 0) + rest].reshape(size)
        shifts = []
        for j in range(i):
            step = side ** (i - 1 - j)
            k_j = np.arange(step, size) // step % side
            shifts.append((step, a[i, j] * root[k_j], np.empty(size - step, dtype=complex)))
        for k in range(n_max):
            np.multiply(b[i], cur, out=new)
            if k:
                np.multiply(a[i, i] * root[k], prev, out=tmp)
                np.add(new, tmp, out=new)
            for step, weight, product in shifts:
                np.multiply(weight, cur[:-step], out=product)
                np.add(new[step:], product, out=new[step:])
            prev, cur, new = cur, new, prev
            # the product by 1 / sqrt(k + 1) is numpy's complex division by it
            np.multiply(cur, 1.0 / root[k + 1], out=cur)
            g[(Ellipsis, k + 1) + rest] = cur.reshape((side,) * i)
    dim = side ** state.n_modes
    return g.reshape(dim, dim)
