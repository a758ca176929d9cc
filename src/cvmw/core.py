"""Gaussian states in the real quadrature basis and symplectic matrices
(plain 2N x 2N arrays S acting as Sigma -> S Sigma S^T).

Conventions used throughout the package:

* quadrature ordering is interleaved, r = (x1, p1, ..., xN, pN)
* the vacuum covariance matrix is the identity (a = (x + ip)/sqrt(2))
* a coherent state |alpha> has displacement d = sqrt(2)(Re alpha, Im alpha)

Every transcendental goes through math, by math_map for a scalar or an
array, so a float and its array row get the same bits on every CPU, where
numpy's SIMD loops round by the CPU they dispatch to. An input where math
raises is mapped before the call. Two numpy sites stay: the complex Fock
oracle (cvmw.fock), and the np.log10 decade guess of cli._float_cells,
which decides no digit.
"""

import functools
import json
import math

import numpy as np

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty relation."""


def any_true(mask):
    """np.any(mask), without its dispatch cost when mask is a scalar. A
    Python bool, what a comparison of floats gives, returns before the
    isinstance test, which costs as much again as the call."""
    if mask.__class__ is bool:
        return mask
    return mask.any() if isinstance(mask, np.ndarray) else mask


def all_true(mask):
    """np.all(mask), as any_true; `not all_true(in range)` also rejects NaN."""
    if mask.__class__ is bool:
        return mask
    return mask.all() if isinstance(mask, np.ndarray) else mask


def where(cond, x, y):
    """np.where(cond, x, y); `x if cond else y` for a scalar, tested as a bool first."""
    if cond.__class__ is bool or not isinstance(cond, np.ndarray):
        return x if cond else y
    return np.where(cond, x, y)


def sqrt(x):
    """np.sqrt(x); on a scalar math.sqrt, which rounds alike, and NaN below 0."""
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x) if x >= 0.0 else math.nan


def pow2_scale(x):
    """The power of two s with s |x| in [1/2, 1) (1 at x = 0), elementwise;
    a Python float takes the math route before the isinstance test."""
    if x.__class__ is not float and isinstance(x, np.ndarray):
        return np.ldexp(1.0, -np.frexp(x)[1])
    return math.ldexp(1.0, -math.frexp(x)[1])


def math_map(fn, x):
    """fn, a function of one float from math, at x: directly on a scalar,
    which gives a Python float, and element by element on an array, so each
    row has the bits of the scalar call on every CPU. fn raises where math
    does (math.log2(0.0)); the caller maps such an input before the call."""
    if x.__class__ is not float and isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def log_grid(start, stop, count):
    """count points from start > 0 to stop, evenly spaced in log: 10 **
    linspace(log10 start, log10 stop) through math_map, with the ends set to
    start and stop as np.geomspace does, whose power loop rounds by numpy's
    SIMD target."""
    exponents = np.linspace(math.log10(start), math.log10(stop), count)
    grid = math_map(functools.partial(math.pow, 10.0), exponents)
    grid[0], grid[-1] = start, stop
    return grid


def to_float(x):
    """x as a Python float, unless it is an array: arithmetic on a numpy
    scalar costs several times as much."""
    return x if isinstance(x, np.ndarray) else float(x)


@functools.cache
def omega(n_modes):
    """Symplectic form for n modes, block-diagonal in [[0, 1], [-1, 0]];
    built once per n, read-only."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    w1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    w = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        w[2 * j:2 * j + 2, 2 * j:2 * j + 2] = w1
    w.flags.writeable = False
    return w


def _check_modes(modes, n_modes):
    modes = list(modes)
    if not modes:
        raise ValueError("mode subset must be non-empty")
    if any(m < 0 or m >= n_modes for m in modes):
        raise ValueError("mode index out of range")
    if any(b <= a for a, b in zip(modes, modes[1:])):
        raise ValueError("mode subset must be strictly increasing")
    return modes


def _quad_indices(modes):
    idx = []
    for m in modes:
        idx.extend((2 * m, 2 * m + 1))
    return np.array(idx)


def symplectic_eigenvalues(sigma):
    """Symplectic spectrum of a covariance matrix, ascending.

    In closed form where it applies, else from the spectrum of i*Omega*Sigma;
    each value nu_a appears once in the returned array (length n_modes).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError("covariance matrix must be 2N x 2N")
    if np.max(np.abs(sigma - sigma.T)) > 1e-10:
        raise ValueError("covariance matrix must be symmetric")
    nu = (_closed_form(sigma) or (None,))[0]
    return _spectrum(sigma) if nu is None else nu


def _spectrum(sigma):
    """symplectic_eigenvalues without its shape and symmetry checks."""
    ev = np.linalg.eigvals(omega(sigma.shape[0] // 2) @ sigma)
    # eigenvalues come in +/- i*nu pairs; keep one of each
    return np.sort(np.abs(ev))[::2]


def pair_excess(alpha, beta, gamma, t):
    """(D, D - t (t + |alpha - beta|), k) of the pair (alpha I, beta I, gamma Z)
    of stored floats, D = alpha beta - gamma^2, as exact integers in units of
    4^-k. With alpha > 0 the pair has nu_minus >= t where the second is >= 0
    (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004))."""
    ratios = [x.as_integer_ratio() for x in (alpha, beta, gamma, t)]
    k = max(den.bit_length() for _, den in ratios) - 1
    a, b, g, t = (num << k + 1 - den.bit_length() for num, den in ratios)
    d = a * b - g * g
    return d, d - t * (t + abs(a - b)), k


def physical_diagonal(alpha, beta, gamma):
    """alpha, beta > 0 of a pair (alpha I, beta I, gamma Z) that is physical
    in exact arithmetic, rounded up by the fewest ulps that make its stored
    floats physical (pair_excess at t = 1): rounding misses it by up to about
    e^{4r} ulps of 1 at squeezing r. A clear float margin decides first."""
    while True:
        p, q = alpha * beta, gamma * gamma + 1.0 + abs(alpha - beta)
        if p - q > 1e-15 * (p + q) or pair_excess(alpha, beta, gamma, 1.0)[1] >= 0:
            return alpha, beta
        alpha, beta = math.nextafter(alpha, math.inf), math.nextafter(beta, math.inf)


def source_pair(r, n):
    """(a, c) = (1 + 2n)(cosh 2r, sinh 2r), on math, of tmst and of every
    link's source, a rounded up by physical_diagonal; a must be finite."""
    if n < 0.0:
        raise ValueError("source occupation n must be non-negative")
    scale = 1.0 + 2.0 * n
    # math.cosh raises past 710.4758600739439, the last x with a finite cosh x
    a = scale * math.cosh(2.0 * r) if abs(2.0 * r) <= 710.4758600739439 else math.inf
    if not math.isfinite(a):
        raise ValueError("the source's (1 + 2n) cosh 2r overflows at r = %g, "
                         "n = %g" % (r, n))
    c = scale * math.sinh(2.0 * r)
    return physical_diagonal(a, a, c)[0], c


def _closed_form(sigma):
    """(nu, physical) of a finite symmetric Sigma that is a direct sum of modes
    x I and standard-form pairs (alpha I, beta I, gamma Z), else None: the
    symplectic spectrum, ascending (None unless Sigma > 0), and min nu >= 1 -
    PHYSICALITY_TOL decided exactly. A pair's nu_+ = (hypot(alpha - beta,
    2 sqrt D) + |alpha - beta|) / 2 and nu_- = D / nu_+ take its exact D."""
    rows, partner = sigma.tolist(), {}
    for j in range(0, len(rows), 2):  # the 2x2 blocks: x I or gamma Z, symmetric
        for k in range(0, len(rows), 2):
            x = rows[j][k]
            if (rows[j][k + 1] or rows[j + 1][k] or rows[j + 1][k + 1] != (x if j == k else -x)
                    or rows[k][j] != x or not math.isfinite(x)
                    or x and j != k and partner.setdefault(j, k) != k):
                return None
    nu, physical, t = [], True, 1.0 - PHYSICALITY_TOL
    for j in range(0, len(rows), 2):
        k = partner.get(j, j)
        alpha, beta, gamma = rows[j][j], rows[k][k], rows[j][k]
        if j == k:
            nu.append(alpha)
            physical &= alpha >= t
        elif j < k:
            d, excess, unit = pair_excess(alpha, beta, gamma, t)
            if alpha <= 0.0 or d <= 0:
                return None, False
            shift = max(d.bit_length() - 1000, 0) // 2  # float(d >> 2 shift) is finite
            root_d = math.ldexp(math.sqrt(d >> 2 * shift), shift - unit)
            nu_plus = (math.hypot(alpha - beta, 2.0 * root_d) + abs(alpha - beta)) / 2.0
            nu += [root_d * (root_d / nu_plus), nu_plus]
            physical &= excess >= 0
    return (np.array(sorted(nu)), physical) if min(nu) > 0.0 else (None, False)


class GaussianState:
    """Displacement vector and covariance matrix of an N-mode Gaussian state;
    validate() makes it immutable (read-only arrays) and keeps its spectrum."""

    def __init__(self, d, sigma, check=True):
        d = np.array(d, dtype=float).reshape(-1)
        sigma = np.array(sigma, dtype=float)
        if sigma.shape != (d.size, d.size) or d.size % 2:
            raise ValueError("dimension mismatch between d and sigma")
        self.n_modes = d.size // 2
        self.d = d
        self.sigma = sigma
        self._nu = None
        if check:
            self.validate()

    def validate(self):
        if np.max(np.abs(self.sigma - self.sigma.T)) > SYMMETRY_TOL:
            raise PhysicalityError("covariance matrix is not symmetric")
        verdict = _closed_form(self.sigma)
        if verdict is None:  # any other Sigma
            try:  # the moduli of eig(Omega Sigma) cannot see the sign of Sigma
                np.linalg.cholesky(self.sigma)
            except np.linalg.LinAlgError:
                verdict = None, False
            else:
                nu = _spectrum(self.sigma)
                verdict = nu, not nu.min() < 1.0 - PHYSICALITY_TOL
        nu, physical = verdict
        if nu is None:
            raise PhysicalityError("covariance matrix is not positive definite")
        if not physical:
            raise PhysicalityError(
                "state violates the uncertainty relation (min nu = %.12g)" % nu.min())
        for arr in (self.d, self.sigma, nu):
            arr.flags.writeable = False
        self._nu = nu

    def copy(self):
        return GaussianState(self.d, self.sigma, check=False)

    def symplectic_eigenvalues(self):
        return symplectic_eigenvalues(self.sigma) if self._nu is None else self._nu

    def to_json(self):
        return json.dumps({
            "n_modes": self.n_modes,
            "d": self.d.tolist(),
            "sigma": self.sigma.tolist(),
        }, allow_nan=False)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        state = cls(obj["d"], obj["sigma"])
        if state.n_modes != obj["n_modes"]:
            raise ValueError("inconsistent n_modes in serialized state")
        return state

    def __repr__(self):
        return "GaussianState(n_modes=%d)" % self.n_modes


def beam_splitter(eta):
    """Two-mode beam splitter with intensity reflectivity eta in [0, 1].

    Amplitude entries are sqrt(eta) on the diagonal blocks and
    +/- sqrt(1 - eta) off the diagonal.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    t = np.sqrt(eta)
    r = np.sqrt(1.0 - eta)
    i2 = np.eye(2)
    top = np.hstack([t * i2, r * i2])
    bot = np.hstack([-r * i2, t * i2])
    return np.vstack([top, bot])


def vacuum(n_modes=1):
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal(n_modes, n_th):
    """n_modes-fold thermal state with n_th photons per mode."""
    if n_th < 0:
        raise ValueError("thermal occupation must be non-negative")
    return GaussianState(np.zeros(2 * n_modes),
                         (1.0 + 2.0 * n_th) * np.eye(2 * n_modes))


def coherent(alpha_re, alpha_im=0.0):
    # Python floats overflow to inf without a numpy warning
    d = [math.sqrt(2.0) * float(a) for a in (alpha_re, alpha_im)]
    if not all(map(math.isfinite, d)):
        raise ValueError("coherent amplitude %r + %ri: displacement sqrt(2) alpha "
                         "must be finite" % (alpha_re, alpha_im))
    return GaussianState(np.array(d), np.eye(2))


def tmsv(r):
    """Two-mode squeezed vacuum with squeezing parameter r."""
    return tmst(r, 0.0)


def tmst(r, n):
    """Two-mode squeezed thermal state: (1 + 2n) times the TMSV covariance,
    with the entries of source_pair; validated."""
    a, c = source_pair(r, n)
    return GaussianState(np.zeros(4), [[a, 0.0, c, 0.0], [0.0, a, 0.0, -c],
                                       [c, 0.0, a, 0.0], [0.0, -c, 0.0, a]])


def apply(state, transform, on=None):
    """Apply a 2k x 2k symplectic matrix to k of the modes (all by default)."""
    if on is None:
        on = range(state.n_modes)
    modes = _check_modes(on, state.n_modes)
    if len(transform) != 2 * len(modes):
        raise ValueError("transform acts on %d modes, subset has %d"
                         % (len(transform) // 2, len(modes)))
    s_emb = np.eye(2 * state.n_modes)
    idx = _quad_indices(modes)
    s_emb[np.ix_(idx, idx)] = transform
    return GaussianState(s_emb @ state.d, s_emb @ state.sigma @ s_emb.T, check=False)
