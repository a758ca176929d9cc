import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from cvmw import bifreq, cli, core, fock, illumination
from cvmw.core import PhysicalityError
from cvmw.entanglement import BipartiteCM
from cvmw.estimation import (GaussianFamily, RegularizationError, gaussian_qfi,
                             sld_standard_form)
from tests.oracles import fock_ops, monras
from tests.oracles.finite_difference import jet
from tests.oracles.monras import (MatrixFamily, QuadraticObservable, gaussian_sld,
                                  matrix_family, observable_moments,
                                  optimal_observable)
from tests.oracles.routes import (bifreq_classical_constructive,
                                  bifreq_received_constructive,
                                  illumination_classical_constructive,
                                  qi_received_constructive)


def displacement_family(lambda0=0.3):
    """The vacuum displaced by (sqrt(2) lambda, 0) on mode 1."""
    return GaussianFamily(1.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                          (np.sqrt(2.0), 0.0, 0.0, 0.0), lambda0)


def tmsv_family(r):
    """The two-mode squeezed vacuum in its squeezing parameter: pure."""
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return GaussianFamily(ch, ch, sh, 2.0 * sh, 2.0 * sh, 2.0 * ch,
                          (0.0, 0.0, 0.0, 0.0), r)


def qi_family(n_s=0.4, n_th=0.6, gamma=0.3, eta=1e-4):
    return illumination.received_family(
        illumination.QiParams(n_s, n_th, gamma, eta))


def qi_state(p, eta):
    """Quantum illumination received state at reflectivity eta."""
    return BipartiteCM.standard_form(*illumination.received_params(replace(p, eta=eta)))


class TestGaussianQfi:
    def test_displacement_family_against_fock_oracle(self):
        fam = displacement_family()
        h = gaussian_qfi(fam)
        n_max = 40

        def rho_fn(lam):
            ket = fock_ops.displacement(lam, n_max)[:, 0]
            return np.outer(ket, ket.conj())

        h_oracle = fock_ops.qfi_spectral(rho_fn, fam.lambda0, 1e-3)
        assert h == pytest.approx(h_oracle, abs=1e-4)
        assert h == pytest.approx(4.0, abs=1e-9)
        assert monras.gaussian_qfi(matrix_family(fam)) == pytest.approx(4.0, abs=1e-9)

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
        # two independent copies carry twice the information: the four-mode
        # Monras oracle against the library's two-mode closed form
        fam = matrix_family(qi_family())

        def doubled(m):
            return np.kron(np.eye(2), m)

        fam2 = MatrixFamily(
            core.GaussianState(np.zeros(8), doubled(fam.state.sigma), check=False),
            doubled(fam.dsigma), np.zeros(8), fam.lambda0)
        assert monras.gaussian_qfi(fam2) == pytest.approx(
            2.0 * gaussian_qfi(qi_family()), rel=1e-8)

    def test_invariant_under_fixed_symplectics(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(4)
        fam = matrix_family(qi_family())
        base = gaussian_qfi(qi_family())
        for _ in range(3):
            h = rng.normal(size=(4, 4), scale=0.4)
            s = expm(core.omega(2) @ (h + h.T) / 2.0)
            rotated = MatrixFamily(
                core.GaussianState(s @ fam.state.d, s @ fam.state.sigma @ s.T,
                                   check=False),
                s @ fam.dsigma @ s.T, s @ fam.dd, fam.lambda0)
            assert monras.gaussian_qfi(rotated) == pytest.approx(base, rel=1e-7)

    def test_finite_difference_richardson_convergence(self):
        # the finite-difference oracle on a thermal family with
        # transcendental parameter dependence: the QFI is v'^2/(v^2 - 1) for
        # mode variance v(lambda), giving a visible finite-difference error
        # to track as the step halves
        def evaluate(lam):
            v = 2.0 + np.sin(lam)
            return core.GaussianState(np.zeros(4),
                                      np.diag([v, v, 3.0, 3.0]), check=False)

        lam0 = 0.3
        v0, dv = 2.0 + np.sin(lam0), np.cos(lam0)
        exact = dv ** 2 / (v0 ** 2 - 1.0)
        err_h = abs(monras.gaussian_qfi(jet(evaluate, lam0, 0.2)) - exact)
        err_h2 = abs(monras.gaussian_qfi(jet(evaluate, lam0, 0.1)) - exact)
        assert err_h2 < err_h / 4.0  # Richardson leaves at least O(h^2) gains
        assert monras.gaussian_qfi(jet(evaluate, lam0, 1e-4)) == \
            pytest.approx(exact, rel=1e-10)
        closed = GaussianFamily(v0, 3.0, 0.0, dv, 0.0, 0.0, (0.0, 0.0, 0.0, 0.0), lam0)
        assert gaussian_qfi(closed) == pytest.approx(exact, rel=1e-14)

    def test_bures_consistency(self):
        # H/4 is the metric of the Bures distance: second difference of the
        # Uhlmann fidelity across lambda0 +/- h
        p = illumination.QiParams(0.3, 0.3, 0.0, 0.05)
        fam = illumination.received_family(p)
        n_max = 20
        step = 2e-3
        rho_p = fock.gaussian_density(qi_state(p, p.eta + step), n_max)
        rho_m = fock.gaussian_density(qi_state(p, p.eta - step), n_max)
        fid = fock_ops.uhlmann_fidelity(rho_p, rho_m)
        h_bures = 2.0 * (1.0 - np.sqrt(fid)) / step ** 2
        for h_val in (gaussian_qfi(fam), monras.gaussian_qfi(matrix_family(fam))):
            assert h_val == pytest.approx(h_bures, rel=1e-2)

    def test_pure_state_regularization_error(self):
        with pytest.raises(RegularizationError):
            gaussian_qfi(tmsv_family(0.5))

    def test_pure_displacement_family_bypasses_regularization(self):
        # covariance is constant, so only the displacement term is evaluated
        h = gaussian_qfi(displacement_family())
        assert h == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("triple", [(-1.0, -1.0, 0.0), (2.0, 2.0, 2.0),
                                        (1.0, 1.0, 0.5), (0.5, 0.5, 0.0)])
    def test_unphysical_state_raises(self, triple):
        # not positive definite (the first two), or below the uncertainty
        # relation: nu = sqrt(1 - 0.25) and 0.5
        with pytest.raises(PhysicalityError):
            gaussian_qfi(GaussianFamily(*triple, 1.0, 0.0, 0.0,
                                        (0.0, 0.0, 0.0, 0.0), 0.0))

    def test_arrays_evaluate_elementwise(self):
        p = bifreq.BifreqParams(np.linspace(0.1, 0.99, 7), 0.0,
                                np.linspace(0.2, 5.0, 7), 0.05, 2.0)
        for build in (bifreq.received_family, bifreq.classical_received_family):
            h = gaussian_qfi(build(p))
            assert h.shape == (7,)
            for i in range(7):
                point = bifreq.BifreqParams(p.eta1[i], 0.0, p.n_r[i], 0.05, 2.0)
                assert h[i] == gaussian_qfi(build(point))

    def test_constant_pure_covariance_keeps_the_displacement_term(self):
        # nu = 1 on a covariance that does not move: no division by zero
        fam = displacement_family()
        arrays = GaussianFamily(np.ones(3), np.ones(3), np.zeros(3), 0.0, 0.0,
                                0.0, (np.full(3, np.sqrt(2.0)), 0.0, 0.0, 0.0), 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_qfi(fam) == pytest.approx(4.0, abs=1e-9)
            np.testing.assert_allclose(gaussian_qfi(arrays), 4.0, atol=1e-9)

    def test_one_pure_point_fails_the_array(self):
        p = bifreq.BifreqParams(np.array([0.5, 1.0]), 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(RegularizationError):
            bifreq.h_q_bifreq(p)


# name -> (family builder, the parameter's field, parameter points, the
# received state built from its definition) of the four library families
LIBRARY_FAMILIES = {
    "illum": (illumination.received_family, "eta", [
        illumination.QiParams(0.4, 0.6, 0.3, 1e-4),
        illumination.QiParams(2.0, 5.0, 0.0, 0.6)],
        lambda q: qi_received_constructive(q).to_state()),
    "illum-classical": (illumination.classical_received_family, "eta", [
        illumination.QiParams(0.4, 0.6, 0.3, 1e-4),
        illumination.QiParams(2.0, 5.0, 1.0, 0.6)],
        illumination_classical_constructive),
    "bifreq": (bifreq.received_family, "lam", [
        bifreq.BifreqParams(0.9, 0.0, 2.9, 0.0, 5.0),
        bifreq.BifreqParams(0.5, 0.1, 1.2, 0.3, 1e3)],
        lambda q: bifreq_received_constructive(q).to_state()),
    "bifreq-classical": (bifreq.classical_received_family, "lam", [
        bifreq.BifreqParams(0.9, 0.0, 2.9, 0.0, 5.0),
        bifreq.BifreqParams(0.5, 0.1, 1.2, 0.3, 1e3)],
        bifreq_classical_constructive),
}
JET_CASES = [(name, i) for name, entry in LIBRARY_FAMILIES.items()
             for i in range(len(entry[2]))]


def library_state(name, p, value):
    """State of a library family with its parameter set to value, built from
    beam splitters and partial traces."""
    _, field, _, construct = LIBRARY_FAMILIES[name]
    return construct(replace(p, **{field: value}))


def symbolic_state(name, p, sp):
    """(Sigma, d) of a library family as sympy expressions in its parameter,
    restated from the received-state closed forms."""
    t = sp.Symbol("t", real=True)
    if name.startswith("illum"):
        n_s, n_th = sp.Float(p.n_s), sp.Float(p.n_th)
        x = t * sp.exp(-sp.Float(p.gamma))
        if name == "illum":
            f = 1 + 2 * n_th + 2 * n_s * x ** 2
            g = 2 * sp.sqrt(n_s * (1 + n_s)) * x
            c = 1 + 2 * n_s
            sigma = sp.Matrix([[f, 0, g, 0], [0, f, 0, -g],
                               [g, 0, c, 0], [0, -g, 0, c]])
            return t, sigma, sp.zeros(4, 1)
        sigma = sp.diag(*([1 + 2 * n_th * (1 - x ** 2)] * 2 + [1 + 2 * n_th] * 2))
        return t, sigma, sp.Matrix([sp.sqrt(2 * n_s) * x, 0, 0, 0])
    eta1, n_r, n, n_th = (sp.Float(v) for v in (p.eta1, p.n_r, p.n, p.n_th))
    eta2 = eta1 + t
    if name == "bifreq":
        r = sp.asinh(sp.sqrt(2 * n_r))
        s, c = (1 + 2 * n) * sp.cosh(2 * r), (1 + 2 * n) * sp.sinh(2 * r)
        temp = 1 + 2 * n_th
        a, b = eta1 * s + (1 - eta1) * temp, eta2 * s + (1 - eta2) * temp
        e = sp.sqrt(eta1 * eta2) * c
        sigma = sp.Matrix([[a, 0, e, 0], [0, a, 0, -e],
                           [e, 0, b, 0], [0, -e, 0, b]])
        return t, sigma, sp.zeros(4, 1)
    alpha = sp.sqrt(n * (1 + 2 * n_r) + n_r)
    sigma = sp.diag(*([1 + 2 * n_th * (1 - eta1)] * 2 + [1 + 2 * n_th * (1 - eta2)] * 2))
    return t, sigma, sp.Matrix([sp.sqrt(2 * eta1) * alpha, 0,
                                sp.sqrt(2 * eta2) * alpha, 0])


class TestLibraryJets:
    @pytest.mark.parametrize("name,case", JET_CASES)
    def test_matches_the_finite_difference_oracle(self, name, case):
        build, field, params, _ = LIBRARY_FAMILIES[name]
        p = params[case]
        fam = matrix_family(build(p))
        ref = jet(lambda v: library_state(name, p, v), getattr(p, field), 1e-5)
        np.testing.assert_allclose(fam.state.sigma, ref.state.sigma, rtol=1e-13, atol=0.0)
        assert fam.lambda0 == getattr(p, field)
        scale = max(np.max(np.abs(fam.dsigma)), np.max(np.abs(fam.dd)))
        for exact, approx in ((fam.dsigma, ref.dsigma), (fam.dd, ref.dd)):
            np.testing.assert_allclose(approx, exact, rtol=1e-8, atol=1e-8 * scale)

    @pytest.mark.parametrize("name,case", JET_CASES)
    def test_matches_symbolic_derivatives(self, name, case):
        sp = pytest.importorskip("sympy")
        build, field, params, _ = LIBRARY_FAMILIES[name]
        p = params[case]
        fam = matrix_family(build(p))
        t, sigma, d = symbolic_state(name, p, sp)
        at = {t: getattr(p, field)}

        def value(expr):
            return np.array(expr.subs(at).evalf(30).tolist(), dtype=float)

        np.testing.assert_allclose(fam.state.sigma, value(sigma), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(fam.dsigma, value(sigma.diff(t)), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fam.dd, value(d.diff(t)).ravel(), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", list(LIBRARY_FAMILIES))
    def test_qfi_matches_the_monras_oracle(self, name):
        # the closed form against the 16 x 16 Monras solve of the same jet,
        # over a grid of each family's parameters. The float solve loses
        # eps (alpha + beta)^2 / (nu^2 - 1) near the pure edge, where
        # TestSixtyDigits checks the closed form instead
        build = LIBRARY_FAMILIES[name][0]
        if name.startswith("illum"):
            grid = [illumination.QiParams(n_s, n_th, gamma, eta)
                    for n_s in (0.01, 0.4, 5.0) for n_th in (0.05, 1.0, 1e3)
                    for gamma in (0.0, 1.0) for eta in (1e-4, 0.5, 1.0)]
        else:
            grid = [bifreq.BifreqParams(eta1, lam, n_r, n, n_th)
                    for eta1 in (0.01, 0.5, 0.9, 1.0 - 1e-8)
                    for lam in (0.0, -0.5 * eta1) for n_r in (0.0, 0.5, 5.0)
                    for n in (0.0, 0.1) for n_th in (0.05, 1.0, 1e3)]
        worst = 0.0
        for p in grid:
            fam = build(p)
            if fam.dalpha == fam.dbeta == fam.dgamma == 0.0 and not any(fam.dd):
                continue  # n_r = n = 0: nothing to estimate
            oracle_fam = matrix_family(fam)
            try:
                oracle = monras.gaussian_qfi(oracle_fam)
            except monras.RegularizationError:
                with pytest.raises(RegularizationError):
                    gaussian_qfi(fam)
                continue
            nu = oracle_fam.state.symplectic_eigenvalues().min()
            rounding = np.finfo(float).eps * (fam.alpha + fam.beta) ** 2 / (nu ** 2 - 1.0)
            worst = max(worst, abs(gaussian_qfi(fam) / oracle - 1.0) / (1e-12 + 4.0 * rounding))
        assert worst < 1.0

    def test_coherent_bifreq_diverges_at_zero_reflectivity(self):
        with pytest.raises(ValueError, match="diverges"):
            bifreq.classical_received_family(bifreq.BifreqParams(0.0, 0.0, 1.0))

    def test_uncorrelated_bifreq_mode_has_no_correlation_derivative(self):
        fam = bifreq.received_family(bifreq.BifreqParams(0.0, 0.0, 1.0, 0.0, 1.0))
        assert fam.dgamma == 0.0
        assert gaussian_qfi(fam) > 0.0


def seeded_params(name, rng, size):
    """Seeded parameters of a library family, as arrays of size points."""
    def u(lo, hi):
        return rng.uniform(lo, hi, size)
    if name.startswith("illum"):
        return illumination.QiParams(u(0.1, 3.0), u(0.2, 5.0), u(0.0, 0.5), u(0.0, 1.0))
    return bifreq.BifreqParams(u(0.05, 0.95), u(-0.04, 0.04), u(0.0, 3.0), u(0.0, 0.05),
                               u(0.0, 5.0))


class TestScalarFamilies:
    @pytest.mark.parametrize("name", list(LIBRARY_FAMILIES))
    def test_scalar_fields_give_the_array_row_as_a_float(self, name):
        build = LIBRARY_FAMILIES[name][0]
        p = seeded_params(name, np.random.default_rng(41), 200)
        rows = gaussian_qfi(build(p))
        for i, row in enumerate(rows.tolist()):
            point = type(p)(*(getattr(p, f.name)[i].item() for f in fields(p)))
            h = gaussian_qfi(build(point))
            assert type(h) is float
            assert h.hex() == row.hex()


class TestSixtyDigits:
    """The closed form against a 60-digit Monras solve of the same float jet."""

    @staticmethod
    def monras_60(fam):
        oracle = matrix_family(fam)
        return monras.gaussian_qfi_mp(oracle.state.sigma, oracle.dsigma, oracle.dd)

    # eta1 -> 1 at n_th = 1e3 for n_r up to 5, and random points
    CASES = ([bifreq.BifreqParams(1.0 - dev, 0.0, n_r, 0.0, 1e3)
              for dev in (1e-8, 1e-6) for n_r in (0.5, 2.9, 5.0)]
             + [bifreq.BifreqParams(*point) for point in np.random.default_rng(16).uniform(
                 [0.05, 0.0, 0.0, 0.0, 0.05], [0.95, 0.04, 5.0, 0.5, 1e3], (6, 5))]
             + [illumination.QiParams(*point) for point in np.random.default_rng(17).uniform(
                 [0.01, 0.01, 0.0, 0.0], [5.0, 1e3, 1.0, 1.0], (6, 4))])

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_families(self, case):
        p = self.CASES[case]
        module = bifreq if isinstance(p, bifreq.BifreqParams) else illumination
        for build in (module.received_family, module.classical_received_family):
            fam = build(p)
            assert gaussian_qfi(fam) == pytest.approx(float(self.monras_60(fam)), rel=1e-9)

    @pytest.mark.parametrize("excess", [1.1e-6, 5e-7, 2e-7, 1.1e-7])
    @pytest.mark.parametrize("n_r", [0.05, 0.5, 2.9])
    def test_near_the_pure_state_edge(self, excess, n_r):
        # at eta1 = 1 the received state is the probe: both symplectic
        # eigenvalues are 1 + 2n, so min nu lies `excess` above 1, within
        # 1e-6 of the PURE_TOL edge. A float nu - 1 carries a relative
        # rounding error of eps / (nu - 1), which exceeds 1e-9 below
        # nu - 1 = 2e-7; the bound adds four of it
        fam = bifreq.received_family(bifreq.BifreqParams(1.0, 0.0, n_r, excess / 2.0, 0.5))
        bound = 1e-9 + 4.0 * np.finfo(float).eps / excess
        assert gaussian_qfi(fam) == pytest.approx(float(self.monras_60(fam)), rel=bound)

    @pytest.mark.parametrize("family", list(cli.QFI_FAMILIES))
    def test_hot_bath_qfi_command(self, family, capsys):
        # at n_th_bath = 1e160 alpha beta and (alpha + beta)^2 pass the float
        # range unless the jet is scaled; the illum system needs 400 digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["qfi", "--family", family, "--set", "n_th_bath=1e160"]) == 0
        names, row = capsys.readouterr().out.splitlines()
        h = float(dict(zip(names.split(","), row.split(",")))["h_numeric"])
        module = illumination if family.startswith("illum") else bifreq
        p = (illumination.QiParams(1.0, 1e160, 0.0, 1e-4) if module is illumination
             else bifreq.BifreqParams(0.9, 0.0, 1.0, 0.0, 1e160))
        build = (module.classical_received_family if family.endswith("classical")
                 else module.received_family)
        oracle = matrix_family(build(p))
        want = monras.gaussian_qfi_mp(oracle.state.sigma, oracle.dsigma, oracle.dd, dps=400)
        assert h == pytest.approx(float(want), rel=1e-13)


class TestSldStandardForm:
    """The SLD's quadratic part against the Monras solve of the same jet."""

    @staticmethod
    def standard_form(a_mat):
        """(p_1, p_2, q) of [[p_1 I, q Z], [q Z, p_2 I]], checked to be of that form."""
        p1, p2, q = a_mat[0, 0], a_mat[2, 2], a_mat[0, 2]
        form = np.array([[p1, 0, q, 0], [0, p1, 0, -q], [q, 0, p2, 0], [0, -q, 0, p2]])
        np.testing.assert_allclose(a_mat, form, rtol=0.0,
                                   atol=1e-9 * np.max(np.abs(a_mat)))
        return p1, p2, q

    @pytest.mark.parametrize("name", list(LIBRARY_FAMILIES))
    def test_matches_the_monras_sld(self, name):
        build = LIBRARY_FAMILIES[name][0]
        if name.startswith("illum"):
            grid = [illumination.QiParams(n_s, n_th, gamma, eta)
                    for n_s in (0.01, 0.4, 5.0) for n_th in (0.05, 1.0, 1e3)
                    for gamma in (0.0, 1.0) for eta in (1e-4, 0.5)]
        else:
            grid = [bifreq.BifreqParams(eta1, lam, n_r, n, n_th)
                    for eta1 in (0.01, 0.5, 0.9) for lam in (0.0, -0.5 * eta1)
                    for n_r in (0.5, 5.0) for n in (0.0, 2.0) for n_th in (0.05, 1.0, 1e3)]
        for p in grid:
            fam = build(p)
            oracle = matrix_family(fam)
            a_mat, _, h_oracle = monras._sld_matrices(oracle.state, oracle.dsigma, oracle.dd)
            *got, h = sld_standard_form(fam)
            scale = np.max(np.abs(a_mat))
            np.testing.assert_allclose(got, self.standard_form(a_mat), rtol=1e-9,
                                       atol=1e-12 * scale, err_msg=str(p))
            assert h == pytest.approx(gaussian_qfi(fam), rel=4e-16)
            assert h == pytest.approx(h_oracle, rel=1e-9)

    @pytest.mark.parametrize("n_th", [1.0, 1e78, 1e100, 1e160, 1e300])
    @pytest.mark.parametrize("name", ["illum", "bifreq"])
    def test_hot_bath_matches_the_multiprecision_sld(self, name, n_th):
        if name == "illum":
            fam = illumination.received_family(illumination.QiParams(1.0, n_th, 0.0, 1e-4))
        else:
            fam = bifreq.received_family(bifreq.BifreqParams(0.9, 0.0, 1.0, 2.0, n_th))
        oracle = matrix_family(fam)
        a_mat, h_mp = monras.gaussian_sld_mp(oracle.state.sigma, oracle.dsigma, dps=800)
        want = [float(x) for x in (a_mat[0, 0], a_mat[2, 2], a_mat[0, 2], h_mp)]
        got = sld_standard_form(fam)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-13, abs=1e-300)

    def test_constant_covariance_has_no_quadratic_part(self):
        fam = displacement_family()
        assert sld_standard_form(fam) == (0.0, 0.0, 0.0, gaussian_qfi(fam))

    @pytest.mark.parametrize("name", list(LIBRARY_FAMILIES))
    def test_scalar_fields_give_the_array_row(self, name):
        build = LIBRARY_FAMILIES[name][0]
        p = seeded_params(name, np.random.default_rng(43), 50)
        rows = np.array(sld_standard_form(build(p)))
        for i in range(50):
            point = type(p)(*(getattr(p, f.name)[i].item() for f in fields(p)))
            assert [x.hex() for x in sld_standard_form(build(point))] == [
                x.hex() for x in rows[:, i].tolist()]

    def test_pure_state_raises(self):
        with pytest.raises(RegularizationError):
            sld_standard_form(tmsv_family(0.5))


class TestGaussianSld:
    def test_constant_family_gives_zero_observable(self):
        st = core.tmst(0.4, 0.2)
        fam = MatrixFamily(st, np.zeros((4, 4)), np.zeros(4), 0.0)
        sld = gaussian_sld(fam)
        assert np.all(sld.quad == 0.0) and np.all(sld.lin == 0.0)
        assert sld.const == 0.0

    def test_zero_mean_at_operating_point(self):
        fam = matrix_family(qi_family())
        sld = gaussian_sld(fam)
        mean, _ = observable_moments(fam.state, sld)
        assert mean == pytest.approx(0.0, abs=1e-8)

    def test_variance_equals_qfi(self):
        fam = matrix_family(qi_family())
        sld = gaussian_sld(fam)
        _, var = observable_moments(fam.state, sld)
        assert var == pytest.approx(gaussian_qfi(qi_family()), rel=1e-8)

    def test_anticommutator_in_fock_space(self):
        # {L, rho} = 2 drho on a small received instance
        p = illumination.QiParams(0.3, 0.3, 0.0, 0.1)
        fam = matrix_family(illumination.received_family(p))
        sld = gaussian_sld(fam)
        n_max = 20
        dims = (n_max + 1, n_max + 1)
        x, pp = fock_ops.quadrature_ops(n_max)
        quads = [fock_ops.op_on_mode(x, 0, dims), fock_ops.op_on_mode(pp, 0, dims),
                 fock_ops.op_on_mode(x, 1, dims), fock_ops.op_on_mode(pp, 1, dims)]
        op = sld.const * np.eye((n_max + 1) ** 2, dtype=complex)
        for i in range(4):
            op += sld.lin[i] * quads[i]
            for j in range(4):
                op += sld.quad[i, j] * 0.5 * (
                    quads[i] @ quads[j] + quads[j] @ quads[i])
        step = 1e-3
        rho_p = fock.gaussian_density(qi_state(p, p.eta + step), n_max)
        rho_m = fock.gaussian_density(qi_state(p, p.eta - step), n_max)
        rho_0 = fock.gaussian_density(fam.state, n_max)
        drho = (rho_p - rho_m) / (2.0 * step)
        resid = op @ rho_0 + rho_0 @ op - 2.0 * drho
        assert np.max(np.abs(resid)) < 1e-4

    def test_pure_state_raises(self):
        def evaluate(lam):
            return core.tmsv(0.5 + lam)

        with pytest.raises(monras.RegularizationError):
            gaussian_sld(jet(evaluate, 0.0))


class TestOptimalObservable:
    def test_mean_equals_parameter_at_operating_point(self):
        for lambda0 in (1e-4, 1e-3, 0.05):
            p = illumination.QiParams(0.5, 0.8, 0.1, lambda0)
            fam = matrix_family(illumination.received_family(p))
            obs = optimal_observable(fam)
            mean, _ = observable_moments(fam.state, obs)
            assert mean == pytest.approx(lambda0, abs=1e-9)

    def test_variance_saturates_cramer_rao(self):
        fam = matrix_family(qi_family())
        obs = optimal_observable(fam)
        _, var = observable_moments(fam.state, obs)
        assert var * gaussian_qfi(qi_family()) == pytest.approx(1.0, rel=1e-8)


class TestObservableMoments:
    def test_number_operator_on_thermal(self):
        # mean n, variance n(n+1); oracle: moments on the truncated space
        n_th = 0.8
        quad = 0.5 * np.eye(2)
        obs = QuadraticObservable(quad, np.zeros(2), -0.5)
        st = core.thermal(1, n_th)
        mean, var = observable_moments(st, obs)
        rho = fock.thermal_density(n_th, 120)
        num = np.diag(np.arange(121.0))
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
