import json
import sys
import tracemalloc

import numpy as np
import pytest

from cvmw import core, distill, entanglement, fock, illumination
from tests import child
from tests.oracles import fock_ops
from tests.oracles.routes import (blocks_bfs, gaussian_density_moveaxis,
                                  negativity_dense, tmst_density_loop)


class TestDisplacement:
    def test_vacuum_element(self):
        alpha = 0.6 - 0.3j
        assert fock_ops.displacement_element(0, 0, alpha) == pytest.approx(
            np.exp(-abs(alpha) ** 2 / 2.0))

    def test_coherent_amplitudes(self):
        from math import factorial
        alpha = 0.8 + 0.1j
        for n in range(6):
            expected = (np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** n
                        / np.sqrt(float(factorial(n))))
            assert fock_ops.displacement_element(n, 0, alpha) == pytest.approx(expected)

    def test_zero_displacement_is_identity(self):
        np.testing.assert_allclose(fock_ops.displacement(0.0, 10), np.eye(11))

    def test_unitarity(self):
        d = fock_ops.displacement(0.4 + 0.2j, 50)
        np.testing.assert_allclose((d.conj().T @ d)[:30, :30], np.eye(30),
                                   atol=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.3j), (0.9, -0.7 + 0.2j)])
    def test_composition_law(self, alpha, beta):
        n_max = 40
        da = fock_ops.displacement(alpha, n_max)
        db = fock_ops.displacement(beta, n_max)
        dab = fock_ops.displacement(alpha + beta, n_max)
        phase = np.exp(0.5 * (alpha * np.conj(beta) - np.conj(alpha) * beta))
        sub = slice(0, 20)  # away from the truncation edge
        np.testing.assert_allclose((da @ db)[sub, sub],
                                   (phase * dab)[sub, sub], atol=1e-8)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fock_ops.displacement_element(-1, 0, 0.5)


class TestKets:
    def test_tmsv_amplitude_ratio(self):
        r = 0.7
        ket = fock_ops.tmsv_ket(r, 40)
        diag = np.diagonal(ket.amplitudes)
        ratios = diag[1:20] / diag[:19]
        np.testing.assert_allclose(ratios, np.tanh(r), rtol=1e-12)

    def test_leakage_shrinks_with_truncation(self):
        leaks = [fock_ops.tmsv_ket(1.0, n).leakage for n in (20, 40, 60)]
        assert leaks[0] > leaks[1] > leaks[2] >= 0.0
        assert fock_ops.tmsv_ket(1.0, 60).leakage < 1e-8

    def test_subtracting_from_vacuum_raises(self):
        ket = fock_ops.tmsv_ket(0.0, 10)
        with pytest.raises(ValueError):
            fock_ops.photon_subtract(ket, 1)

    def test_photon_subtract_weight(self):
        # weight of a x b on the TMSV is <n^2> = sum c_n^2 n^2
        r = 0.5
        ket = fock_ops.tmsv_ket(r, 60)
        _, weight = fock_ops.photon_subtract(ket, 1)
        diag = np.abs(np.diagonal(ket.amplitudes)) ** 2
        expected = np.sum(diag * np.arange(61) ** 2)
        assert weight == pytest.approx(expected, rel=1e-12)


class TestBeamSplitter:
    def test_unitary(self):
        u = fock_ops.beam_splitter_unitary(0.7, 8)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(81), atol=1e-12)

    def test_matches_amplitude_formula(self):
        # generator exponential vs closed-form binomial amplitudes
        tau, n_max = 0.9, 12
        u = fock_ops.beam_splitter_unitary(tau, n_max)
        for m in (0, 1, 4, 7):
            for j in range(m + 1):
                row = (m - j) * (n_max + 1) + j
                col = m * (n_max + 1)
                assert u[row, col] == pytest.approx(
                    fock_ops.bs_amplitude(m, j, tau), abs=1e-12)

    def test_matches_gaussian_covariance(self):
        eta, n_max = 0.6, 14
        rho = fock.tmst_density(0.3, 0.1, n_max)
        u = fock_ops.beam_splitter_unitary(eta, n_max)
        rho2 = u @ rho @ u.conj().T
        st = core.apply(core.tmst(0.3, 0.1), core.beam_splitter(eta))
        x, p = fock_ops.quadrature_ops(n_max)
        dims = (n_max + 1, n_max + 1)
        x1 = fock_ops.op_on_mode(x, 0, dims)
        var = 2.0 * np.trace(rho2 @ x1 @ x1).real
        assert var == pytest.approx(st.sigma[0, 0], rel=1e-5)


class TestDensityMatrices:
    def test_thermal_density_is_valid(self):
        rho = fock.thermal_density(0.5, 40)
        assert fock_ops.check_density(rho) < 1e-10

    def test_gaussian_density_validity_and_leakage(self):
        rho = fock.gaussian_density(core.tmst(0.5, 0.1), 30)
        assert abs(fock_ops.check_density(rho)) < 1e-6

    @pytest.mark.parametrize("r,n_max", [(0.5, 30), (0.8, 40)])
    def test_tmst_density_of_vacuum_pair_is_tmsv(self, r, n_max):
        # amplitudes tanh(r)^j / cosh(r) on |j, j>, read on the j <= 10 block
        # where the truncation of each block's exponential does not reach
        cut = 11
        amps = np.diag(np.tanh(r) ** np.arange(cut) / np.cosh(r)).reshape(-1)
        low = np.kron(np.arange(n_max + 1) < cut, np.arange(n_max + 1) < cut)
        rho = fock.tmst_density(r, 0.0, n_max)
        np.testing.assert_allclose(rho[np.ix_(low, low)], np.outer(amps, amps),
                                   rtol=0.0, atol=1e-13)

    def test_partial_transpose_is_involution(self):
        rho = fock.tmst_density(0.5, 0.05, 12)
        pt = fock_ops.partial_transpose(rho, (13, 13))
        back = fock_ops.partial_transpose(pt, (13, 13))
        np.testing.assert_allclose(back, rho, atol=1e-14)

    def test_non_hermitian_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            fock_ops.partial_transpose(bad, (2, 2))

    @pytest.mark.parametrize("check", [fock_ops.check_density,
                                       lambda m: fock_ops.partial_transpose(m, (15, 20))])
    @pytest.mark.parametrize("entry", [(299, 299), (290, 3)])
    def test_defect_in_last_slab_rejected(self, check, entry):
        # 300 rows are read as slabs of 128, 128 and 44
        rho = np.diag(np.full(300, 1.0 / 300)).astype(complex)
        rho[entry] += 1e-9j
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            check(rho)

    def test_gaussian_density_matches_beam_splitter_unitary(self):
        # the splitter conserves the total photon number, so its truncated
        # unitary is exact on the low block, where the tmst tails are negligible
        n_max, cut = 20, 8
        u = fock_ops.beam_splitter_unitary(0.35, n_max)
        rho = u @ fock.tmst_density(0.3, 0.1, n_max) @ u.conj().T
        st = core.apply(core.tmst(0.3, 0.1), core.beam_splitter(0.35))
        low = np.kron(np.arange(n_max + 1) < cut, np.arange(n_max + 1) < cut)
        np.testing.assert_allclose(fock.gaussian_density(st, n_max)[np.ix_(low, low)],
                                   rho[np.ix_(low, low)], atol=1e-10)

    @pytest.mark.parametrize("state", [
        # pure, with equal symplectic eigenvalues
        core.apply(core.tmst(0.1, 0.0), core.beam_splitter(0.2)),
        # unequal extra thermal noise on the two modes
        core.GaussianState(np.zeros(4), core.tmst(
            0.18958175312956957, 0.016032760363398263).sigma + np.diag(
            [0.015894540241515525] * 2 + [0.04945764992393972] * 2)),
    ])
    def test_gaussian_density_matches_gaussian_negativity(self, state):
        # a route through a symplectic factorization once got these wrong by
        # 0.18 and 2e-6, depending on the basis it picked
        n_max = 20
        rho = fock.gaussian_density(state, n_max)
        assert abs(np.trace(rho).real - 1.0) <= 1e-6
        expected = entanglement.negativity(
            entanglement.BipartiteCM.from_state(state))
        assert fock.negativity_fock(rho, (n_max + 1,) * 2) == pytest.approx(
            expected, abs=1e-12)


class TestGaussianDensity:
    """gaussian_density against references that share no code with it."""

    def test_thermal_state(self):
        rho = fock.gaussian_density(core.thermal(1, 0.7), 30)
        np.testing.assert_allclose(rho, fock.thermal_density(0.7, 30), atol=1e-15)

    def test_coherent_state(self):
        from math import factorial
        alpha, n_max = 0.6 - 0.4j, 20
        amps = np.array([np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** k
                         / np.sqrt(float(factorial(k))) for k in range(n_max + 1)])
        rho = fock.gaussian_density(core.coherent(alpha.real, alpha.imag), n_max)
        np.testing.assert_allclose(rho, np.outer(amps, amps.conj()), atol=1e-15)

    def test_two_mode_squeezed_vacuum(self):
        # unnormalized: the block keeps the amplitudes tanh(r)^j / cosh(r)
        r, n_max = 0.8, 25
        amps = np.diag(np.tanh(r) ** np.arange(n_max + 1) / np.cosh(r)).reshape(-1)
        rho = fock.gaussian_density(core.tmsv(r), n_max)
        np.testing.assert_allclose(rho, np.outer(amps, amps), atol=1e-13)

    def test_random_states_match_gaussian_negativity(self):
        # random symplectic bases and displacements. A truncated block is a
        # compression of rho, so by eigenvalue interlacing its negativity
        # never exceeds the Gaussian one; mixing 0.25 keeps a quarter of the
        # states inside the n_max = 20 block to 1e-8, where the two agree.
        from tests.test_core import random_valid_cm
        rng = np.random.default_rng(0)
        n_max, compared = 20, 0
        for _ in range(20):
            state = core.GaussianState(rng.uniform(-0.5, 0.5, size=4),
                                       random_valid_cm(rng, mixing=0.25))
            rho = fock.gaussian_density(state, n_max)
            deficit = fock_ops.check_density(rho)
            value = fock.negativity_fock(rho, (n_max + 1,) * 2)
            expected = entanglement.negativity(
                entanglement.BipartiteCM.from_state(state))
            assert value <= expected + 1e-10
            if deficit <= 1e-8:
                compared += 1
                assert value == pytest.approx(expected, abs=1e-6)
        assert compared >= 1

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            fock.gaussian_density(core.vacuum(3), 20)

    def test_index_tuples_equal_the_moveaxis_route(self):
        # displaced two-mode squeezed thermal states with extra noise on each
        # mode, as in the benchmark's pool, and a displaced thermal mode
        rng = np.random.default_rng(4)
        states = [core.GaussianState([0.3, -0.1], core.thermal(1, 0.3).sigma)]
        for _ in range(5):
            sigma = core.tmst(rng.uniform(0.1, 0.2), rng.uniform(0.0, 0.02)).sigma
            sigma = sigma + np.diag([rng.uniform(0.0, 0.02)] * 2
                                    + [rng.uniform(0.03, 0.05)] * 2)
            states.append(core.GaussianState(rng.uniform(-0.2, 0.2, size=4), sigma))
        for state in states:
            for n_max in (1, 7, 20):
                assert np.array_equal(fock.gaussian_density(state, n_max),
                                      gaussian_density_moveaxis(state, n_max))


def test_oracle_imports_only_numpy_and_the_standard_library():
    # the oracle must share no code with the library it checks
    import ast
    import sys
    from pathlib import Path
    tree = ast.parse(Path(fock.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in cvmw.fock"
            names.add(node.module)
    tops = {name.split(".")[0] for name in names}
    assert tops - {"numpy"} <= set(sys.stdlib_module_names), tops


def _hermitian_blocks(sizes, pad, seed):
    """Random Hermitian matrix of dense blocks plus pad zero rows and
    columns, under a seeded permutation."""
    rng = np.random.default_rng(seed)
    dim = sum(sizes) + pad
    mat = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        mat[start:start + size, start:start + size] = g + g.conj().T
        start += size
    perm = rng.permutation(dim)
    return mat[np.ix_(perm, perm)]


class TestBlockSpectrum:
    def test_tmst_partial_transpose(self):
        pt = fock_ops.partial_transpose(fock.tmst_density(0.5, 0.05, 12), (13, 13))
        assert len(fock._blocks(pt)) == 25
        np.testing.assert_allclose(np.sort(fock_ops._eigvalsh(pt)),
                                   np.linalg.eigvalsh(pt), rtol=0.0, atol=1e-13)

    def test_permuted_blocks_and_zero_rows(self):
        mat = _hermitian_blocks((4, 7, 9), 2, seed=3)
        assert len(fock._blocks(mat)) == 5
        np.testing.assert_allclose(np.sort(fock_ops._eigvalsh(mat)),
                                   np.linalg.eigvalsh(mat), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mat", [
        np.zeros((6, 6)),
        np.eye(5),
        np.ones((4, 4)),
        _hermitian_blocks((1, 3, 5, 2), 3, seed=7),
        fock.thermal_density(0.3, 8),
        fock.tmst_density(0.4, 0.1, 6),
    ])
    def test_blocks_partition_the_indices(self, mat):
        blocks = fock._blocks(mat)
        assert all(len(b) for b in blocks)
        np.testing.assert_array_equal(np.sort(np.concatenate(blocks)),
                                      np.arange(len(mat)))

    def test_displaced_gaussian_is_one_block(self):
        state = core.GaussianState([0.1, -0.2, 0.05, 0.1], core.tmst(0.3, 0.05).sigma)
        assert len(fock._blocks(fock.gaussian_density(state, 10))) == 1


class TestNegativity:
    def test_product_state_has_zero_negativity(self):
        rho = np.kron(fock.thermal_density(0.4, 10), fock.thermal_density(0.2, 10))
        assert fock.negativity_fock(rho, (11, 11)) == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_matches_closed_form(self):
        # N = lambda/(1-lambda) = (e^{2r} - 1)/2
        r = 1.0
        ket = fock_ops.tmsv_ket(r, 60)
        expected = (np.exp(2.0 * r) - 1.0) / 2.0
        assert fock_ops.ket_negativity(ket) == pytest.approx(expected, abs=1e-6)
        # dense partial-transpose route agrees with the Schmidt route
        small = fock_ops.tmsv_ket(0.5, 25)
        assert fock.negativity_fock(small.density(), (26, 26)) == pytest.approx(
            fock_ops.ket_negativity(small), abs=1e-10)

    def test_heuristic_subtraction_matches_hypergeometric_form(self):
        # 2k-subtracted negativity: ((1-lam)^{-2(k+1)} / 2F1 - 1) / 2;
        # r <= 0.8 keeps the amplified tails within the n_max = 60 cut
        for r, k in ((0.6, 1), (0.8, 1), (0.8, 2)):
            lam = np.tanh(r)
            ket, _ = fock_ops.photon_subtract(fock_ops.tmsv_ket(r, 60), k)
            assert fock_ops.ket_negativity(ket) == pytest.approx(
                distill.heuristic_negativity(lam, k), abs=1e-6)

    def test_invariant_under_local_rotations(self):
        n_max = 20
        rho = fock.tmst_density(0.5, 0.05, n_max)
        base = fock.negativity_fock(rho, (n_max + 1,) * 2)
        phase = np.diag(np.exp(-1j * 0.7 * np.arange(n_max + 1)))
        u = np.kron(phase, np.eye(n_max + 1, dtype=complex))
        rot = u @ rho @ u.conj().T
        assert fock.negativity_fock(rot, (n_max + 1,) * 2) == pytest.approx(
            base, abs=1e-10)



def _displaced_density(n_max):
    state = core.GaussianState([0.1, -0.2, 0.05, 0.1], core.tmst(0.3, 0.05).sigma)
    return fock.gaussian_density(state, n_max)


def _non_hermitian(entry):
    """tmst_density at n_max 5, made complex, with 1e-9j added at entry."""
    rho = fock.tmst_density(0.4, 0.1, 5).astype(complex)
    rho[entry] += 1e-9j
    return rho


CASES = [
    (lambda: fock.tmst_density(0.5, 0.05, 12), (13, 13)),
    (lambda: fock.tmst_density(0.3, 0.01, 32), (33, 33)),
    (lambda: _displaced_density(10), (11, 11)),
    (lambda: _displaced_density(20), (21, 21)),
    (lambda: np.kron(fock.thermal_density(0.4, 10), fock.thermal_density(0.2, 6)),
     (11, 7)),
    (lambda: _hermitian_blocks((4, 7, 9), 4, seed=3), (4, 6)),
    (lambda: _hermitian_blocks((1, 3, 5, 2), 3, seed=7), (2, 7)),
]
CASE_IDS = ["tmst-12", "tmst-32", "displaced-10", "displaced-20", "product",
            "blocks-4x6", "blocks-2x7"]


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The size of each matrix np.linalg.eigvalsh is called on, in order."""
    sizes, solve = [], np.linalg.eigvalsh

    def spy(mat):
        sizes.append(len(mat))
        return solve(mat)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


class TestBlockGather:
    """negativity_fock reads rho^Gamma block by block from rho, and
    tmst_density builds each +-delta block once: both against the routes
    they replace, bit for bit wherever no row is dropped."""

    @pytest.mark.parametrize("build,dims,drops", [
        case + (case_id == "displaced-20",) for case, case_id in zip(CASES, CASE_IDS)],
        ids=CASE_IDS)
    def test_negativity_equals_dense_route(self, build, dims, drops, eigvalsh_sizes):
        # bit for bit where no row is dropped. displaced-20 drops rows: its
        # spectrum moves by at most EPS ||rho||_F, beside the D EPS ||rho||_F
        # of the dense solve's own rounding (it reads one ulp apart)
        rho = build()
        dense = negativity_dense(rho, dims)
        eigvalsh_sizes.clear()
        got = fock.negativity_fock(rho, dims)
        dropped = len(rho) - sum(eigvalsh_sizes)
        if drops:
            assert dropped > 0
            assert abs(got - dense) <= (1 + len(rho)) * fock.EPS * np.linalg.norm(rho, "fro")
        else:
            assert dropped == 0
            assert got == dense

    @pytest.mark.parametrize("build,dims", CASES + [
        (lambda: _non_hermitian((6, 13)), (6, 6)),
        (lambda: _non_hermitian((0, 3)), (6, 6)),
    ], ids=CASE_IDS + ["defect-in-block", "lone-entry"])
    def test_blocks_equal_breadth_first_route(self, build, dims):
        # of rho and of the pattern of rho^Gamma; in the lone-entry case the
        # pattern is not symmetric, and 0 and 3 must share a block
        rho = build()
        d1, d2 = dims
        pattern = (rho.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1) != 0).reshape(
            d1 * d2, d1 * d2)
        for mat in (rho, pattern):
            got, want = fock._blocks(mat), blocks_bfs(mat)
            assert len(got) == len(want)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_blocks_equal_breadth_first_route_on_random_patterns(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            size = int(rng.integers(1, 25))
            mat = rng.random((size, size)) < rng.choice([0.02, 0.05, 0.1, 0.3])
            got, want = fock._blocks(mat), blocks_bfs(mat)
            assert len(got) == len(want)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("r,n,n_max", [(0.5, 0.05, 12), (0.3, 0.01, 32),
                                           (0.7, 0.04, 40)])
    def test_real_rho_gives_the_complex_negativity(self, r, n, n_max):
        rho = fock.tmst_density(r, n, n_max)
        assert rho.dtype == np.float64
        dims = (n_max + 1,) * 2
        assert fock.negativity_fock(rho, dims) == pytest.approx(
            fock.negativity_fock(rho.astype(complex), dims), rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("r,n,n_max", [(0.0, 0.0, 3), (0.5, 0.05, 12),
                                           (0.3, 0.0, 20), (0.8, 0.1, 32)])
    def test_tmst_density_equals_loop(self, r, n, n_max):
        # real r gives real Fock entries: the loop's imaginary parts are rounding
        loop = tmst_density_loop(r, n, n_max)
        assert np.abs(loop.imag).max() <= 1e-15 * np.abs(loop).max()
        assert np.array_equal(fock.tmst_density(r, n, n_max), loop.real)

    @pytest.mark.parametrize("check", [
        fock_ops.check_density, lambda m: fock.negativity_fock(m, (6, 6))],
        ids=["check_density", "negativity_fock"])
    @pytest.mark.parametrize("entry", [
        (6, 13),  # |1, 0><2, 1|: inside a block of rho and of rho^Gamma
        (0, 3),   # |0, 0><0, 3|: a lone entry whose mirror is zero
    ])
    def test_non_hermitian_rejected(self, check, entry):
        rho = _non_hermitian(entry)
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            check(rho)

    def test_partial_transpose_is_never_formed(self):
        rho = fock.tmst_density(0.3, 0.0, 32)
        tracemalloc.start()
        try:
            fock.negativity_fock(rho, (33, 33))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rho.nbytes / 4, (peak, rho.nbytes)


def _decaying_block(size, ratio, seed, complex_):
    """Seeded Hermitian block whose row and column i scale as ratio**i,
    under a seeded permutation. Its diagonal entry ratio**i is as large as
    the rest of row i, so dropping row i moves the spectrum at first order."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(size, size))
    if complex_:
        g = g + 1j * rng.normal(size=(size, size))
    scale = ratio ** np.arange(size)
    mat = (g + g.conj().T) * scale[:, None] * scale + np.diag(scale)
    perm = rng.permutation(size)
    return mat[np.ix_(perm, perm)]


def _rows_to_drop(block):
    """The largest k with 4 k s_k <= (EPS ||block||_F)^2, s_k the sum of the
    k smallest squared row norms, counted one row at a time."""
    weights = sorted(float(np.vdot(row, row).real) for row in block)
    limit = fock.EPS ** 2 * sum(weights)
    k = total = 0
    for weight in weights:
        total += weight
        if 4 * (k + 1) * total > limit:
            break
        k += 1
    return k


class TestDeflation:
    """A block's spectrum is solved without the rows the bound lets go, and
    moves by at most EPS ||block||_F in l1."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_within_the_bound(self, complex_, seed, eigvalsh_sizes):
        block = _decaying_block(60, 0.4, seed, complex_)
        dense = np.sort(np.linalg.eigvalsh(block))
        eigvalsh_sizes.clear()
        got = fock._deflated_eigvalsh(block)
        k = _rows_to_drop(block)
        assert k > 0 and eigvalsh_sizes == [len(block) - k]
        assert not got[-k:].any()
        # EPS ||B||_F for the rows dropped; len(B) EPS ||B||_F for the
        # rounding of the dense solve
        bound = (1 + len(block)) * fock.EPS * np.linalg.norm(block, "fro")
        assert np.abs(np.sort(got) - dense).sum() <= bound

    def test_pool_like_state_drops_at_least_100_rows(self, eigvalsh_sizes):
        # a displaced two-mode squeezed thermal state with extra noise on
        # each mode, as in the benchmark's pool
        sigma = core.tmst(0.15, 0.01).sigma + np.diag([0.01, 0.01, 0.04, 0.04])
        state = core.GaussianState([0.1, -0.2, 0.05, 0.1], sigma)
        rho = fock.gaussian_density(state, 20)
        eigvalsh_sizes.clear()
        value = fock.negativity_fock(rho, (21, 21))
        assert len(rho) - sum(eigvalsh_sizes) >= 100
        expected = entanglement.negativity(entanglement.BipartiteCM.from_state(state))
        assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("r,n", [(0.2, 0.0), (0.35, 0.02), (0.3, 0.01),
                                     (0.8, 0.1)])
    def test_tmst_blocks_drop_none(self, r, n, eigvalsh_sizes):
        # so the tmst negativities keep the bits of the full solves
        fock.negativity_fock(fock.tmst_density(r, n, 32), (33, 33))
        assert sum(eigvalsh_sizes) == 33 ** 2


class TestSpectralQfi:
    def test_coherent_displacement_family(self):
        n_max = 40

        def rho_fn(lam):
            d = fock_ops.displacement(lam, n_max)
            ket = d[:, 0]
            return np.outer(ket, ket.conj())

        h = fock_ops.qfi_spectral(rho_fn, 0.3, 1e-3)
        assert h == pytest.approx(4.0, abs=1e-4)

    def test_parameter_independent_family(self):
        rho = fock.thermal_density(0.5, 15)
        assert fock_ops.qfi_spectral(lambda lam: rho, 0.1, 1e-3) == pytest.approx(
            0.0, abs=1e-20)

    def test_qi_received_state_matches_closed_form(self):
        # eta ~ 0, gamma = 0: spectral QFI against the closed form
        p = illumination.QiParams(0.4, 0.4, gamma=0.0, eta=1e-3)
        n_max = 25

        def rho_fn(lam):
            return fock.gaussian_density(entanglement.BipartiteCM.standard_form(
                *illumination.received_params(
                    illumination.QiParams(p.n_s, p.n_th, p.gamma, lam))), n_max)

        h = fock_ops.qfi_spectral(rho_fn, p.eta, 1e-4)
        assert h == pytest.approx(illumination.h_q(p), rel=1e-3)

    def test_trace_drift_rejected(self):
        n_max = 8

        def rho_fn(lam):
            # intentionally leaky family: thermal occupation grows with lam
            return fock.thermal_density(2.0 + 10.0 * lam, n_max)

        with pytest.raises(ValueError):
            fock_ops.qfi_spectral(rho_fn, 0.2, 0.1)


# The Fock oracle in a fresh interpreter with scipy blocked: the n_max 12
# density, negativity and fidelity calls, and at n_max 40, the benchmark's
# largest, the block-gathered negativity against one dense eigvalsh of the
# partial transpose and against the closed form. The script runs once and
# each test reads its own figure.
SCIPY_BLOCKED_FOCK = """
import json, sys, tracemalloc
sys.modules['scipy'] = None
import numpy as np
from cvmw import core, entanglement, fock
from tests.oracles import fock_ops
state = core.GaussianState([0.1, -0.2, 0.05, 0.1], core.tmst(0.3, 0.05).sigma)
rho = fock.gaussian_density(state, 12)
small_negativity = fock.negativity_fock(rho, (13, 13))
tmst = fock.tmst_density(0.3, 0.05, 12)
u = fock_ops.beam_splitter_unitary(0.4, 12)
small_fidelity = fock_ops.uhlmann_fidelity(rho, u @ tmst @ u.conj().T)
rho = fock.tmst_density(0.7, 0.04, 40)
dtype = str(rho.dtype)
tracemalloc.start()
neg = fock.negativity_fock(rho, (41, 41))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
ev = np.linalg.eigvalsh(fock_ops.partial_transpose(rho, (41, 41)))
closed = entanglement.negativity(
    entanglement.BipartiteCM.from_state(core.tmst(0.7, 0.04)))
print(json.dumps(dict(
    small_negativity=float(small_negativity), small_fidelity=float(small_fidelity),
    dtype=dtype, nbytes=rho.nbytes, peak=peak, negativity=float(neg),
    dense=float(-ev[ev < 0].sum()), closed=float(closed),
    scipy_loaded=[name for name in sys.modules if name.startswith('scipy.')])))
"""


@pytest.fixture(scope="module")
def scipy_blocked_fock():
    proc = child.run(["-c", SCIPY_BLOCKED_FOCK])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["scipy_loaded"] == []
    return out


class TestFockOracleWithScipyBlocked:
    def test_n_max_12_calls_succeed(self, scipy_blocked_fock):
        assert scipy_blocked_fock["small_negativity"] > 0.0
        assert 0.0 < scipy_blocked_fock["small_fidelity"] <= 1.0 + 1e-12

    def test_n_max_40_rho_is_float64(self, scipy_blocked_fock):
        # real r, real Fock entries
        assert scipy_blocked_fock["dtype"] == "float64"

    def test_n_max_40_negativity_peak_below_a_quarter_of_rho(self, scipy_blocked_fock):
        # it never forms rho^Gamma
        out = scipy_blocked_fock
        assert out["peak"] < out["nbytes"] / 4, (out["peak"], out["nbytes"])

    def test_n_max_40_negativity_equals_dense_eigvalsh(self, scipy_blocked_fock):
        out = scipy_blocked_fock
        assert abs(out["negativity"] - out["dense"]) <= 1e-12, out

    def test_n_max_40_negativity_equals_closed_form(self, scipy_blocked_fock):
        out = scipy_blocked_fock
        assert abs(out["negativity"] - out["closed"]) <= 1e-6, out
