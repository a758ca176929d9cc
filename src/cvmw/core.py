"""Gaussian states in the real quadrature basis and symplectic transformations.

Conventions used throughout the package:

* quadrature ordering is interleaved, r = (x1, p1, ..., xN, pN)
* the vacuum covariance matrix is the identity (a = (x + ip)/sqrt(2))
* a coherent state |alpha> has displacement d = sqrt(2)(Re alpha, Im alpha)
"""

import functools
import json

import numpy as np

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
SYMPLECTIC_TOL = 1e-10

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty relation."""


def any_true(mask):
    """np.any(mask), without its dispatch cost when mask is a scalar."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def all_true(mask):
    """np.all(mask), as any_true; `not all_true(in range)` also rejects NaN."""
    return mask.all() if isinstance(mask, np.ndarray) else mask


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

    Computed from the spectrum of i*Omega*Sigma; each value nu_a appears
    once in the returned array (length n_modes).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError("covariance matrix must be 2N x 2N")
    if np.max(np.abs(sigma - sigma.T)) > 1e-10:
        raise ValueError("covariance matrix must be symmetric")
    return _spectrum(sigma)


def _spectrum(sigma):
    """symplectic_eigenvalues without its shape and symmetry checks."""
    ev = np.linalg.eigvals(omega(sigma.shape[0] // 2) @ sigma)
    # eigenvalues come in +/- i*nu pairs; keep one of each
    return np.sort(np.abs(ev))[::2]


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
        try:  # the moduli of eig(Omega Sigma) cannot see the sign of Sigma
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            raise PhysicalityError("covariance matrix is not positive "
                                   "definite") from None
        nu = _spectrum(self.sigma)
        if nu.min() < 1.0 - PHYSICALITY_TOL:
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
    def from_json(cls, text, check=True):
        obj = json.loads(text)
        state = cls(obj["d"], obj["sigma"], check=check)
        if state.n_modes != obj["n_modes"]:
            raise ValueError("inconsistent n_modes in serialized state")
        return state

    def __repr__(self):
        return "GaussianState(n_modes=%d)" % self.n_modes


class SymplecticTransform:
    """A 2N x 2N real matrix S with S Omega S^T = Omega."""

    def __init__(self, matrix, check=True):
        matrix = np.array(matrix, dtype=float)
        if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError("symplectic matrix must be 2N x 2N")
        self.n_modes = matrix.shape[0] // 2
        self.matrix = matrix
        if check:
            w = omega(self.n_modes)
            if np.max(np.abs(matrix @ w @ matrix.T - w)) > SYMPLECTIC_TOL:
                raise ValueError("matrix is not symplectic")

    def __matmul__(self, other):
        return SymplecticTransform(self.matrix @ other.matrix, check=False)


def identity_transform(n_modes):
    return SymplecticTransform(np.eye(2 * n_modes), check=False)


def direct_sum(*transforms):
    mats = [t.matrix for t in transforms]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    k = 0
    for m in mats:
        out[k:k + m.shape[0], k:k + m.shape[0]] = m
        k += m.shape[0]
    return SymplecticTransform(out, check=False)


def rotation(theta):
    """Single-mode phase-space rotation."""
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticTransform(np.array([[c, s], [-s, c]]), check=False)


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
    return SymplecticTransform(np.vstack([top, bot]), check=False)


def single_mode_squeezer(r, theta=0.0):
    """Single-mode squeezer; on vacuum gives Sigma = diag(e^-2r, e^2r) at theta = 0."""
    ch, sh = np.cosh(r), np.sinh(r)
    c, s = np.cos(theta), np.sin(theta)
    mat = ch * np.eye(2) - sh * np.array([[c, s], [s, -c]])
    return SymplecticTransform(mat, check=False)


def two_mode_squeezer(r):
    """Two-mode squeezer; on two vacua produces the two-mode squeezed vacuum."""
    ch, sh = np.cosh(r), np.sinh(r)
    i2 = np.eye(2)
    top = np.hstack([ch * i2, sh * SIGMA_Z])
    bot = np.hstack([sh * SIGMA_Z, ch * i2])
    return SymplecticTransform(np.vstack([top, bot]), check=False)


def vacuum(n_modes=1):
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes), check=False)


def thermal(n_modes, n_th):
    """n_modes-fold thermal state with n_th photons per mode."""
    if n_th < 0:
        raise ValueError("thermal occupation must be non-negative")
    return GaussianState(np.zeros(2 * n_modes),
                         (1.0 + 2.0 * n_th) * np.eye(2 * n_modes), check=False)


def coherent(alpha_re, alpha_im=0.0):
    d = np.sqrt(2.0) * np.array([alpha_re, alpha_im])
    return GaussianState(d, np.eye(2), check=False)


def tmsv(r):
    """Two-mode squeezed vacuum with squeezing parameter r."""
    return tmst(r, 0.0)


def tmst(r, n):
    """Two-mode squeezed thermal state: (1 + 2n) times the TMSV covariance."""
    if n < 0:
        raise ValueError("thermal occupation must be non-negative")
    scale = 1.0 + 2.0 * n
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    sigma = np.zeros((4, 4))
    sigma[:2, :2] = scale * ch * np.eye(2)
    sigma[2:, 2:] = scale * ch * np.eye(2)
    sigma[:2, 2:] = scale * sh * SIGMA_Z
    sigma[2:, :2] = scale * sh * SIGMA_Z
    return GaussianState(np.zeros(4), sigma, check=False)


def apply(state, transform, on=None):
    """Apply a symplectic transform to a subset of modes (all modes by default)."""
    if on is None:
        on = range(state.n_modes)
    modes = _check_modes(on, state.n_modes)
    if transform.n_modes != len(modes):
        raise ValueError("transform acts on %d modes, subset has %d"
                         % (transform.n_modes, len(modes)))
    s_emb = np.eye(2 * state.n_modes)
    idx = _quad_indices(modes)
    s_emb[np.ix_(idx, idx)] = transform.matrix
    return GaussianState(s_emb @ state.d, s_emb @ state.sigma @ s_emb.T, check=False)


def partial_trace(state, keep):
    """Reduced state on the kept modes (rows/columns outside are removed)."""
    modes = _check_modes(keep, state.n_modes)
    idx = _quad_indices(modes)
    return GaussianState(state.d[idx], state.sigma[np.ix_(idx, idx)], check=False)


def purity(state):
    """mu = 1/sqrt(det Sigma) under the vacuum-Sigma = identity convention."""
    det = np.linalg.det(state.sigma)
    if det < 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError("det Sigma < 1: unphysical covariance matrix")
    return 1.0 / np.sqrt(det)


def characteristic_function(state, r_point):
    """Gaussian characteristic function evaluated at a phase-space point."""
    r = np.asarray(r_point, dtype=float).reshape(-1)
    if r.size != 2 * state.n_modes:
        raise ValueError("phase-space point has wrong length")
    w = omega(state.n_modes)
    quad = r @ w @ state.sigma @ w.T @ r
    phase = r @ w @ state.d
    return np.exp(-0.25 * quad) * np.exp(-1j * phase)
