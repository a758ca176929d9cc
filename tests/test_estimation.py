import numpy as np
import pytest

from cvmw import bifreq, core, fock, illumination
from cvmw.estimation import (GaussianFamily, QuadraticObservable,
                             RegularizationError, gaussian_qfi, gaussian_sld,
                             observable_moments, optimal_observable)


def displacement_family(lambda0=0.3):
    def evaluate(lam):
        d = np.array([np.sqrt(2.0) * lam, 0.0, 0.0, 0.0])
        return core.GaussianState(d, np.eye(4), check=False)
    return GaussianFamily(evaluate, lambda0)


def qi_family(n_s=0.4, n_th=0.6, gamma=0.3, eta=1e-4):
    return illumination.received_family(
        illumination.QiParams(n_s, n_th, gamma, eta))


class TestGaussianQfi:
    def test_displacement_family_against_fock_oracle(self):
        fam = displacement_family()
        h = gaussian_qfi(fam)
        n_max = 40

        def rho_fn(lam):
            ket = fock.displacement(lam, n_max)[:, 0]
            return np.outer(ket, ket.conj())

        h_oracle = fock.qfi_spectral(rho_fn, fam.lambda0, 1e-3)
        assert h == pytest.approx(h_oracle, abs=1e-4)
        assert h == pytest.approx(4.0, abs=1e-9)

    def test_qi_closed_form(self):
        p = illumination.QiParams(0.4, 0.6, 0.3, 1e-4)
        assert gaussian_qfi(qi_family()) == pytest.approx(
            illumination.h_q(p), rel=1e-6)

    def test_classical_qi_closed_form(self):
        p = illumination.QiParams(0.4, 0.6, 0.3, 1e-4)
        fam = illumination.classical_received_family(p)
        assert gaussian_qfi(fam) == pytest.approx(illumination.h_c(p), rel=1e-6)

    def test_bifreq_coherent_closed_form(self):
        p = bifreq.BifreqParams(0.7, 0.0, n_r=1.2, n=0.1, n_th=2.0)
        fam = bifreq.classical_received_family(p)
        assert gaussian_qfi(fam) == pytest.approx(bifreq.h_c_bifreq(p), rel=1e-6)

    def test_nonnegative(self):
        assert gaussian_qfi(qi_family()) >= 0.0

    def test_additive_on_doubled_family(self):
        # two independent copies carry twice the information
        fam = qi_family()

        def doubled(lam):
            st = fam(lam)
            sigma = np.zeros((8, 8))
            sigma[:4, :4] = st.sigma
            sigma[4:, 4:] = st.sigma
            return core.GaussianState(np.zeros(8), sigma, check=False)

        fam2 = GaussianFamily(doubled, fam.lambda0, fam.step)
        assert gaussian_qfi(fam2) == pytest.approx(2.0 * gaussian_qfi(fam),
                                                   rel=1e-8)

    def test_invariant_under_fixed_symplectics(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(4)
        fam = qi_family()
        base = gaussian_qfi(fam)
        for _ in range(3):
            h = rng.normal(size=(4, 4), scale=0.4)
            s = expm(core.omega(2) @ (h + h.T) / 2.0)

            def rotated(lam, s=s):
                st = fam(lam)
                return core.GaussianState(s @ st.d, s @ st.sigma @ s.T,
                                          check=False)

            assert gaussian_qfi(GaussianFamily(rotated, fam.lambda0)) == \
                pytest.approx(base, rel=1e-7)

    def test_finite_difference_richardson_convergence(self):
        # thermal family with transcendental parameter dependence: the QFI
        # is v'^2/(v^2 - 1) for mode variance v(lambda), giving a visible
        # finite-difference error to track as the step halves
        def evaluate(lam):
            v = 2.0 + np.sin(lam)
            return core.GaussianState(np.zeros(4),
                                      np.diag([v, v, 3.0, 3.0]), check=False)

        lam0 = 0.3
        v0, dv = 2.0 + np.sin(lam0), np.cos(lam0)
        exact = dv ** 2 / (v0 ** 2 - 1.0)
        err_h = abs(gaussian_qfi(GaussianFamily(evaluate, lam0, 0.2)) - exact)
        err_h2 = abs(gaussian_qfi(GaussianFamily(evaluate, lam0, 0.1)) - exact)
        assert err_h2 < err_h / 4.0  # Richardson leaves at least O(h^2) gains
        assert gaussian_qfi(GaussianFamily(evaluate, lam0, 1e-4)) == \
            pytest.approx(exact, rel=1e-10)

    def test_bures_consistency(self):
        # H/4 is the metric of the Bures distance: second difference of the
        # Uhlmann fidelity across lambda0 +/- h
        p = illumination.QiParams(0.3, 0.3, 0.0, 0.05)
        fam = illumination.received_family(p)
        h_val = gaussian_qfi(fam)
        n_max = 20
        step = 2e-3
        rho_p = fock.gaussian_density(fam(fam.lambda0 + step), n_max)
        rho_m = fock.gaussian_density(fam(fam.lambda0 - step), n_max)
        fid = fock.uhlmann_fidelity(rho_p, rho_m)
        h_bures = 2.0 * (1.0 - np.sqrt(fid)) / step ** 2
        assert h_val == pytest.approx(h_bures, rel=1e-2)

    def test_pure_state_regularization_error(self):
        def evaluate(lam):
            return core.tmsv(0.5 + lam)

        with pytest.raises(RegularizationError):
            gaussian_qfi(GaussianFamily(evaluate, 0.0))

    def test_pure_displacement_family_bypasses_regularization(self):
        # covariance is constant, so only the displacement term is evaluated
        h = gaussian_qfi(displacement_family())
        assert h == pytest.approx(4.0, abs=1e-9)


    @pytest.mark.parametrize("estimator", [gaussian_qfi, optimal_observable])
    def test_five_family_evaluations(self, estimator):
        # the state at lambda0 and central differences at step and step/2
        fam = qi_family()
        calls = []

        def counted(lam):
            calls.append(lam)
            return fam(lam)

        estimator(GaussianFamily(counted, fam.lambda0, fam.step))
        assert len(calls) == 5


class TestGaussianSld:
    def test_constant_family_gives_zero_observable(self):
        st = core.tmst(0.4, 0.2)
        fam = GaussianFamily(lambda lam: st, 0.0)
        sld = gaussian_sld(fam)
        assert np.all(sld.quad == 0.0) and np.all(sld.lin == 0.0)
        assert sld.const == 0.0

    def test_zero_mean_at_operating_point(self):
        fam = qi_family()
        sld = gaussian_sld(fam)
        mean, _ = observable_moments(fam(fam.lambda0), sld)
        assert mean == pytest.approx(0.0, abs=1e-8)

    def test_variance_equals_qfi(self):
        fam = qi_family()
        sld = gaussian_sld(fam)
        _, var = observable_moments(fam(fam.lambda0), sld)
        assert var == pytest.approx(gaussian_qfi(fam), rel=1e-8)

    def test_anticommutator_in_fock_space(self):
        # {L, rho} = 2 drho on a small received instance
        p = illumination.QiParams(0.3, 0.3, 0.0, 0.1)
        fam = illumination.received_family(p)
        sld = gaussian_sld(fam)
        n_max = 20
        dims = (n_max + 1, n_max + 1)
        x, pp = fock.quadrature_ops(n_max)
        quads = [fock.op_on_mode(x, 0, dims), fock.op_on_mode(pp, 0, dims),
                 fock.op_on_mode(x, 1, dims), fock.op_on_mode(pp, 1, dims)]
        op = sld.const * np.eye((n_max + 1) ** 2, dtype=complex)
        for i in range(4):
            op += sld.lin[i] * quads[i]
            for j in range(4):
                op += sld.quad[i, j] * 0.5 * (
                    quads[i] @ quads[j] + quads[j] @ quads[i])
        step = 1e-3
        rho_p = fock.gaussian_density(fam(fam.lambda0 + step), n_max)
        rho_m = fock.gaussian_density(fam(fam.lambda0 - step), n_max)
        rho_0 = fock.gaussian_density(fam(fam.lambda0), n_max)
        drho = (rho_p - rho_m) / (2.0 * step)
        resid = op @ rho_0 + rho_0 @ op - 2.0 * drho
        assert np.max(np.abs(resid)) < 1e-4

    def test_pure_state_raises(self):
        def evaluate(lam):
            return core.tmsv(0.5 + lam)

        with pytest.raises(RegularizationError):
            gaussian_sld(GaussianFamily(evaluate, 0.0))


class TestOptimalObservable:
    def test_mean_equals_parameter_at_operating_point(self):
        for lambda0 in (1e-4, 1e-3, 0.05):
            p = illumination.QiParams(0.5, 0.8, 0.1, lambda0)
            fam = illumination.received_family(p)
            obs = optimal_observable(fam)
            mean, _ = observable_moments(fam(lambda0), obs)
            assert mean == pytest.approx(lambda0, abs=1e-9)

    def test_variance_saturates_cramer_rao(self):
        fam = qi_family()
        obs = optimal_observable(fam)
        _, var = observable_moments(fam(fam.lambda0), obs)
        assert var * gaussian_qfi(fam) == pytest.approx(1.0, rel=1e-8)


class TestObservableMoments:
    def test_number_operator_on_thermal(self):
        # mean n, variance n(n+1); oracle: moments on the truncated space
        n_th = 0.8
        quad = 0.5 * np.eye(2)
        obs = QuadraticObservable(quad, np.zeros(2), -0.5)
        st = core.thermal(1, n_th)
        mean, var = observable_moments(st, obs)
        rho = fock.thermal_density(n_th, 120)
        num = fock.number_op(120)
        mean_oracle = np.trace(rho @ num).real
        var_oracle = np.trace(rho @ num @ num).real - mean_oracle ** 2
        assert mean == pytest.approx(mean_oracle, rel=1e-10)
        assert var == pytest.approx(var_oracle, rel=1e-10)
        assert (mean, var) == (pytest.approx(n_th),
                               pytest.approx(n_th * (n_th + 1.0)))

    def test_constant_observable(self):
        obs = QuadraticObservable(np.zeros((2, 2)), np.zeros(2), 3.7)
        mean, var = observable_moments(core.thermal(1, 1.0), obs)
        assert mean == 3.7 and var == 0.0

    def test_linear_part(self):
        obs = QuadraticObservable(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
        mean, var = observable_moments(core.coherent(0.5, 0.0), obs)
        assert mean == pytest.approx(np.sqrt(2.0) * 0.5)
        assert var == pytest.approx(0.5)  # vacuum quadrature variance

    def test_dimension_mismatch(self):
        obs = QuadraticObservable(np.zeros((2, 2)), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            observable_moments(core.tmsv(0.1), obs)
