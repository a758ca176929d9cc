import math
from fractions import Fraction

import numpy as np
import pytest

from cvmw import core, fock
from cvmw.core import (GaussianState, PhysicalityError, apply, beam_splitter,
                       coherent, omega, symplectic_eigenvalues, thermal, tmst,
                       tmsv, vacuum)
from tests.oracles import fock_ops
from tests.oracles.general import (characteristic_function, partial_trace,
                                   single_mode_squeezer, two_mode_squeezer)
from tests.oracles.routes import symplectic_spectrum_mp, two_mode_symplectic_eigenvalues

BOUNDARY = 1.0 - core.PHYSICALITY_TOL  # the least nu_minus that validates


def random_valid_cm(rng, n_modes=2, mixing=0.5):
    """Random physical covariance matrix: S (I + thermal) S^T."""
    from scipy.linalg import expm
    w = omega(n_modes)
    h = rng.normal(size=(2 * n_modes, 2 * n_modes), scale=mixing)
    s = expm(w @ (h + h.T) / 2.0)
    nu = 1.0 + rng.uniform(0.0, 2.0, size=n_modes)
    return s @ np.diag(np.repeat(nu, 2)) @ s.T


class TestOmega:
    def test_single_mode(self):
        np.testing.assert_allclose(omega(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_block_diagonal(self):
        w = omega(2)
        assert np.all(w[:2, 2:] == 0.0) and np.all(w[2:, :2] == 0.0)
        np.testing.assert_allclose(w[2:, 2:], omega(1))

    def test_built_once_and_read_only(self):
        assert omega(3) is omega(3)
        with pytest.raises(ValueError, match="read-only"):
            omega(3)[0, 0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_squares_to_minus_identity(self, n):
        w = omega(n)
        np.testing.assert_allclose(w @ w, -np.eye(2 * n), atol=1e-15)


class TestScalarOrArrayHelpers:
    MASKS = [True, False, np.True_, np.False_, np.array([False, True]),
             np.array([True, True]), np.array([], dtype=bool)]

    @pytest.mark.parametrize("mask", MASKS, ids=repr)
    def test_any_and_all_true_agree_with_numpy(self, mask):
        assert core.any_true(mask) == np.any(mask)
        assert core.all_true(mask) == np.all(mask)

    @pytest.mark.parametrize("x", [0.0, 3.0, -0.75, 1e-300, 1e300, np.float64(5.5), 7])
    def test_pow2_scale_of_a_scalar_is_a_float_equal_to_numpy(self, x):
        s = core.pow2_scale(x)
        assert type(s) is float
        assert s == np.ldexp(1.0, -np.frexp(x)[1])

    def test_pow2_scale_of_an_array_is_elementwise(self):
        x = np.array([0.0, 3.0, -0.75, 1e-300, 1e300])
        np.testing.assert_array_equal(core.pow2_scale(x),
                                      [core.pow2_scale(float(v)) for v in x])


class TestConstructors:
    def test_vacuum(self):
        st = vacuum(1)
        np.testing.assert_allclose(st.sigma, np.eye(2))
        np.testing.assert_allclose(st.d, 0.0)

    def test_thermal_room_temperature(self):
        st = thermal(1, 1250.0)
        np.testing.assert_allclose(st.sigma, 2501.0 * np.eye(2))

    def test_thermal_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            thermal(1, -0.1)

    def test_coherent_displacement(self):
        st = coherent(1.0, 0.0)
        np.testing.assert_allclose(st.d, [np.sqrt(2.0), 0.0])
        np.testing.assert_allclose(st.sigma, np.eye(2))

    def test_tmsv_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(tmsv(0.0).sigma, np.eye(4))

    def test_tmsv_is_pure(self):
        nu = symplectic_eigenvalues(tmsv(0.9).sigma)
        np.testing.assert_allclose(nu, 1.0, atol=1e-12)

    def test_tmst_is_physical_for_its_stored_floats(self):
        """Up to the overflow of (1 + 2n) cosh 2r, a^2 - c^2 >= 1 holds exactly
        for the floats tmst stores, a is at most 3 ulps above (1 + 2n) cosh 2r,
        and the state validates; past it tmst names the overflow."""
        for n in (0.0, 0.01, 1.0, 1e10):
            for r in np.arange(0.0, 355.25, 0.2).tolist():
                a_math = (1.0 + 2.0 * n) * math.cosh(2.0 * r)
                if a_math == math.inf:
                    with pytest.raises(ValueError, match="cosh 2r overflows"):
                        tmst(r, n)
                    continue
                state = tmst(r, n)
                a, c = state.sigma[0, 0], state.sigma[0, 2]
                assert Fraction(a) ** 2 - Fraction(c) ** 2 >= 1, (r, n)
                assert a_math <= a <= a_math + 3 * math.ulp(a_math), (r, n)
                assert state._nu is not None

    def test_tmst_pt_eigenvalue(self):
        # nu-tilde-minus of the source state is (1 + 2n) e^{-2r}
        from cvmw.entanglement import BipartiteCM, pts_eigenvalues
        cm = BipartiteCM.from_state(tmst(1.0, 0.01))
        nu_minus, _ = pts_eigenvalues(cm)
        np.testing.assert_allclose(nu_minus, 1.02 * np.exp(-2.0), atol=1e-12)
        assert abs(nu_minus - 0.13805) < 5e-5


class TestBeamSplitter:
    def test_eta_one_is_identity(self):
        np.testing.assert_allclose(beam_splitter(1.0), np.eye(4))

    def test_eta_zero_swaps_with_sign(self):
        s = beam_splitter(0.0)
        st = apply(GaussianState([1, 0, 0, 0], np.eye(4)), s)
        np.testing.assert_allclose(st.d, [0, 0, -1, 0], atol=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    def test_symplectic(self, eta):
        s = beam_splitter(eta)
        w = omega(2)
        np.testing.assert_allclose(s @ w @ s.T, w, atol=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(1.5)

    def test_balanced_on_orthogonal_squeezers_gives_tmsv(self):
        r = 0.7
        st = vacuum(2)
        st = apply(st, single_mode_squeezer(r, 0.0), on=(0,))
        st = apply(st, single_mode_squeezer(r, np.pi), on=(1,))
        st = apply(st, beam_splitter(0.5))
        np.testing.assert_allclose(st.sigma, tmsv(r).sigma, atol=1e-12)

    def test_channel_composition_multiplies_transmissivities(self):
        # two attenuation steps against same-temperature environments act
        # like a single one with tau = tau1 * tau2 at the covariance level
        tau1, tau2, n_env = 0.9, 0.8, 0.7

        def attenuate(sig_mode, tau):
            sigma = np.eye(4)
            sigma[:2, :2] = sig_mode
            sigma[2:, 2:] = thermal(1, n_env).sigma
            st = GaussianState(np.zeros(4), sigma, check=False)
            # signal in port 1: the second output carries sqrt(tau) of it
            out = apply(st, beam_splitter(1.0 - tau))
            return partial_trace(out, keep=(1,)).sigma

        sig = 3.0 * np.eye(2)
        two_steps = attenuate(attenuate(sig, tau1), tau2)
        direct = attenuate(sig, tau1 * tau2)
        np.testing.assert_allclose(two_steps, direct, atol=1e-12)


class TestSqueezers:
    def test_zero_squeezing_identity(self):
        np.testing.assert_allclose(single_mode_squeezer(0.0), np.eye(2))
        np.testing.assert_allclose(two_mode_squeezer(0.0), np.eye(4))

    def test_single_mode_variances_match_fock(self):
        # oracle: variances of the squeezed vacuum on the truncated space
        r = 1.0
        st = apply(vacuum(1), single_mode_squeezer(r))
        ket_dim = 61
        u = fock_ops.squeeze_unitary(r, ket_dim - 1)
        ket = u[:, 0]
        x, p = fock_ops.quadrature_ops(ket_dim - 1)
        var_x = 2.0 * (ket.conj() @ x @ x @ ket).real
        var_p = 2.0 * (ket.conj() @ p @ p @ ket).real
        # single-mode squeezed tails decay as tanh(r)^(n/2): truncation-limited
        np.testing.assert_allclose(np.diag(st.sigma), [var_x, var_p], rtol=1e-5)
        np.testing.assert_allclose(np.diag(st.sigma),
                                   [np.exp(-2.0), np.exp(2.0)], rtol=1e-12)

    def test_two_mode_squeezer_reproduces_tmsv(self):
        st = apply(vacuum(2), two_mode_squeezer(0.8))
        np.testing.assert_allclose(st.sigma, tmsv(0.8).sigma, atol=1e-12)


class TestApplyAndTrace:
    def test_identity_leaves_state(self):
        st = tmst(0.6, 0.1)
        out = apply(st, np.eye(4))
        np.testing.assert_allclose(out.sigma, st.sigma)

    def test_apply_preserves_symplectic_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = random_valid_cm(rng)
            st = GaussianState(np.zeros(4), sigma, check=False)
            h = rng.normal(size=(4, 4))
            from scipy.linalg import expm
            s = expm(omega(2) @ (h + h.T) / 2.0)
            np.testing.assert_allclose(s @ omega(2) @ s.T, omega(2), rtol=0,
                                       atol=1e-10)
            out = apply(st, s)
            np.testing.assert_allclose(
                symplectic_eigenvalues(out.sigma),
                symplectic_eigenvalues(sigma), atol=1e-9)

    def test_partial_trace_of_tmsv_is_thermal(self):
        # oracle: the reduced state of the two-mode squeezed vacuum ket
        r = 0.8
        reduced = partial_trace(tmsv(r), keep=(0,))
        ket = fock_ops.tmsv_ket(r, 60)
        rho_a = fock_ops.ptrace(ket.density(), (61, 61), keep=(0,))
        x, p = fock_ops.quadrature_ops(60)
        var_x = 2.0 * np.trace(rho_a @ x @ x).real
        np.testing.assert_allclose(reduced.sigma[0, 0], var_x, rtol=1e-9)
        np.testing.assert_allclose(reduced.sigma, np.cosh(2 * r) * np.eye(2),
                                   atol=1e-12)

    def test_trace_everything_is_identity_operation(self):
        st = tmst(0.4, 0.2)
        out = partial_trace(st, keep=(0, 1))
        np.testing.assert_allclose(out.sigma, st.sigma)

    def test_partial_trace_keeps_physicality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sigma = random_valid_cm(rng, n_modes=3)
            st = GaussianState(np.zeros(6), sigma, check=False)
            reduced = partial_trace(st, keep=(0, 2))
            assert symplectic_eigenvalues(reduced.sigma).min() > 1.0 - 1e-9

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(tmsv(0.1), keep=())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="acts on 2 modes, subset has 1"):
            apply(tmsv(0.1), beam_splitter(0.5), on=(0,))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(4)), 1.0)

    def test_thermal(self):
        np.testing.assert_allclose(
            symplectic_eigenvalues(thermal(1, 3.0).sigma), [7.0])

    def test_closed_form_matches_eigensolver_on_random_cms(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sigma = random_valid_cm(rng)
            np.testing.assert_allclose(
                two_mode_symplectic_eigenvalues(sigma),
                symplectic_eigenvalues(sigma), rtol=1e-9, atol=1e-9)

    def test_non_symmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            symplectic_eigenvalues(bad)

    @pytest.mark.parametrize("sigma", [-np.eye(2), np.diag([1.0, -1.0]),
                                       -tmsv(0.5).sigma],
                             ids=["minus-identity", "indefinite", "minus-tmsv"])
    def test_sign_of_sigma_is_seen(self, sigma):
        # |eig(Omega Sigma)| is 1 for all three, so that route passes them
        moduli = np.abs(np.linalg.eigvals(omega(len(sigma) // 2) @ sigma))
        np.testing.assert_allclose(moduli, 1.0, atol=1e-12)
        with pytest.raises(PhysicalityError):
            GaussianState(np.zeros(len(sigma)), sigma)


class TestCharacteristicFunction:
    def test_normalization_at_origin(self):
        assert characteristic_function(tmst(0.5, 0.1), np.zeros(4)) == 1.0

    def test_vacuum_point_value(self):
        val = characteristic_function(vacuum(1), [2.0, 0.0])
        assert val == pytest.approx(np.exp(-1.0))

    def test_modulus_independent_of_displacement(self):
        pt = [0.7, -0.4]
        v1 = characteristic_function(coherent(0.9, -0.3), pt)
        v2 = characteristic_function(vacuum(1), pt)
        assert abs(v1) == pytest.approx(abs(v2), rel=1e-12)

    @pytest.mark.parametrize("state,n_modes", [
        (coherent(0.3, -0.2), 1),
        (thermal(1, 0.7), 1),
        (tmsv(0.6), 2),
    ])
    def test_matches_fock_trace(self, state, n_modes):
        n_max = 50
        rng = np.random.default_rng(17)
        if n_modes == 2:
            ket = fock_ops.tmsv_ket(0.6, n_max)
            for _ in range(3):
                pt = rng.uniform(-1.5, 1.5, size=4)
                np.testing.assert_allclose(
                    characteristic_function(state, pt),
                    fock_ops.char_fn(ket, pt), atol=1e-6)
        else:
            rho = fock.gaussian_density(state, n_max)
            for _ in range(3):
                pt = rng.uniform(-1.5, 1.5, size=2)
                np.testing.assert_allclose(
                    characteristic_function(state, pt),
                    fock_ops.char_fn(rho, pt, dims=(n_max + 1,)), atol=1e-6)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            characteristic_function(vacuum(1), [0.0, 0.0, 0.0])


def _direct_sum(rng, pairs, singles):
    """Sigma of the standard-form pairs and single modes x I, placed on modes
    in a seeded order, so a pair need not be adjacent."""
    slots = iter(rng.permutation(2 * len(pairs) + len(singles)).tolist())
    sigma = np.zeros((2 * (2 * len(pairs) + len(singles)),) * 2)
    for alpha, beta, gamma in pairs:
        j, k = 2 * next(slots), 2 * next(slots)
        sigma[j:j + 2, j:j + 2], sigma[k:k + 2, k:k + 2] = alpha * np.eye(2), beta * np.eye(2)
        sigma[j:j + 2, k:k + 2] = sigma[k:k + 2, j:j + 2] = gamma * np.diag([1.0, -1.0])
    for x in singles:
        j = 2 * next(slots)
        sigma[j:j + 2, j:j + 2] = x * np.eye(2)
    return sigma


def _triples(rng, count):
    """Seeded standard-form triples: every other one anywhere in 0 <= |gamma|
    <= 1.2 sqrt(alpha beta), physical, unphysical or indefinite, the rest with
    nu_minus within 1e-12 of BOUNDARY, where D = nu_minus (nu_minus + |alpha
    - beta|)."""
    out = []
    for i in range(count):
        alpha, beta = np.exp(rng.uniform(0.01, np.log(50.0), 2)).tolist()
        if i % 2:
            nu = BOUNDARY * (1.0 + rng.uniform(-1e-12, 1e-12))
            gamma = math.sqrt(alpha * beta - nu * (nu + abs(alpha - beta)))
        else:
            gamma = rng.uniform(0.0, 1.2) * math.sqrt(alpha * beta)
        out.append((alpha, beta, gamma * rng.choice([-1.0, 1.0])))
    return out


class TestClosedFormVerdict:
    """core._closed_form against the 60-digit symplectic spectrum of
    i Omega Sigma: the same spectrum, and the same verdicts on positivity
    and on min nu >= BOUNDARY, also within 1e-12 of it."""

    @staticmethod
    def check(sigma):
        nu, physical = core._closed_form(sigma)
        nu_mp, positive = symplectic_spectrum_mp(sigma)
        assert (nu is not None) == positive
        assert physical == (positive and min(nu_mp) >= BOUNDARY)
        if positive:
            np.testing.assert_allclose(nu, [float(v) for v in nu_mp], rtol=1e-13)
        return positive, physical

    def test_standard_form_pairs(self):
        rng = np.random.default_rng(47)
        verdicts = {self.check(_direct_sum(rng, [triple], [])) for triple in _triples(rng, 40)}
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_direct_sums(self):
        rng = np.random.default_rng(48)
        triples = iter(_triples(rng, 12))
        for pairs, singles in ((2, 0), (1, 1), (1, 2), (2, 0), (0, 3), (1, 2)):
            xs = rng.uniform(0.5, 3.0, singles).tolist()
            self.check(_direct_sum(rng, [next(triples) for _ in range(pairs)], xs))

    def test_single_modes(self):
        for x in (BOUNDARY, math.nextafter(BOUNDARY, 0.0), 0.5, 0.0, -1.0, 1e300):
            self.check(x * np.eye(2))

    def test_validate_decides_by_it(self):
        """A Sigma of this shape never reaches the Cholesky factorization, and
        keeps the closed-form spectrum."""
        inside, outside = (_direct_sum(np.random.default_rng(0), [(2.0, 3.0, g)], [1.5])
                           for g in (2.0, 2.3))
        state = GaussianState(np.zeros(6), inside)
        np.testing.assert_array_equal(state.symplectic_eigenvalues(),
                                      core._closed_form(inside)[0])
        with pytest.raises(PhysicalityError, match="uncertainty relation"):
            GaussianState(np.zeros(6), outside)
        with pytest.raises(PhysicalityError, match="not positive definite"):
            GaussianState(np.zeros(2), -np.eye(2))

    def test_other_shapes_take_the_eigen_solve(self):
        rng = np.random.default_rng(5)
        swapped = [1, 0, 2, 3]  # mode 0's x and p swapped: eps has x-p entries
        for sigma in (random_valid_cm(rng), np.diag([2.0, 0.5]),
                      tmst(1.0, 0.1).sigma[swapped][:, swapped]):
            assert core._closed_form(sigma) is None


class TestValidationAndSerialization:
    def test_constructors_produce_physical_states(self):
        for st in (vacuum(2), thermal(2, 1.5), coherent(0.5, 0.5),
                   tmsv(1.0), tmst(1.0, 0.3)):
            st.validate()

    def test_asymmetric_sigma_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(PhysicalityError):
            GaussianState(np.zeros(2), bad)

    def test_unphysical_sigma_rejected_and_bypassable(self):
        sigma = 0.2 * np.eye(2)
        with pytest.raises(PhysicalityError):
            GaussianState(np.zeros(2), sigma)
        GaussianState(np.zeros(2), sigma, check=False)  # no raise

    def test_validated_state_is_read_only(self):
        state = GaussianState([0.1, 0.0, 0.0, 0.2], tmst(0.5, 0.1).sigma)
        for arr in (state.sigma, state.d, state.symplectic_eigenvalues()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
        np.testing.assert_array_equal(state.symplectic_eigenvalues(),
                                      symplectic_eigenvalues(state.sigma))
        copy = state.copy()
        copy.sigma[0, 0] = 2.0  # a copy is unchecked and writable
        assert state.sigma[0, 0] != 2.0

    def test_unchecked_state_stays_writable_until_validated(self):
        state = tmst(0.5, 0.1).copy()  # tmst validates; its copy is unchecked
        state.sigma[0, 1] = 0.0
        state.validate()
        with pytest.raises(ValueError, match="read-only"):
            state.sigma[0, 1] = 0.0

    def test_json_roundtrip(self):
        st = tmst(0.7, 0.2)
        back = GaussianState.from_json(st.to_json())
        np.testing.assert_allclose(back.sigma, st.sigma)
        np.testing.assert_allclose(back.d, st.d)
        assert back.n_modes == 2
