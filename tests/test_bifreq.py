import warnings

import numpy as np
import pytest

from cvmw import bifreq, cli, core
from cvmw.bifreq import (BifreqParams, bifreq_probe, bifreq_received,
                         h_c_bifreq, h_q_bifreq, high_noise_ratio,
                         high_reflectivity_ratio, jpa_synthesis,
                         optimal_coeffs, qcrb_saturating_noise, thermal_ratio,
                         variance_formula)
from cvmw.estimation import gaussian_qfi
from tests.oracles import monras
from tests.oracles.finite_difference import jet
from tests.oracles.general import (coeffs_high_reflectivity, coeffs_noiseless,
                                   jpa_forward, jpa_identification_residual)
from tests.oracles.monras import (as_quadratic, matrix_family, observable_moments,
                                  optimal_observable, optimal_observable_numeric)
from tests.oracles.routes import bifreq_classical_constructive


class TestThermalRatio:
    def test_equal_frequencies(self):
        assert thermal_ratio(0.5, 0.0) == (1.0, 1.0)

    def test_room_temperature_occupation(self):
        # 300 K at 5 GHz: h nu / k T, occupation about 1250 photons
        from cvmw.channel import BOLTZMANN, PLANCK
        beta_omega = PLANCK * 5e9 / (BOLTZMANN * 300.0)
        n_th = 1.0 / np.expm1(beta_omega)
        assert n_th == pytest.approx(1250.0, abs=1.0)

    def test_twenty_percent_detuning_error(self):
        from cvmw.channel import BOLTZMANN, PLANCK
        beta_omega = PLANCK * 5e9 / (BOLTZMANN * 300.0)
        exact, first = thermal_ratio(beta_omega, 0.2)
        assert abs(exact / first - 1.0) == pytest.approx(0.04, abs=0.02)


class TestStates:
    def test_lossless_reflection_gives_pure_tmsv(self):
        p = BifreqParams(1.0, 0.0, n_r=0.9, n=0.0, n_th=0.0)
        cm = bifreq_received(p)
        nu = core.symplectic_eigenvalues(cm.matrix)
        np.testing.assert_allclose(nu, 1.0, atol=1e-10)
        r = np.arcsinh(np.sqrt(2.0 * p.n_r))
        np.testing.assert_allclose(cm.matrix, core.tmsv(r).sigma, atol=1e-12)

    def test_received_diagonal_entry_on_tmsv_slice(self):
        # at n = 0 the received diagonal is (1 + 4 eta N_r - 2 eta N_th + 2 N_th)
        for eta1 in (0.3, 0.8):
            for n_r in (0.5, 2.9):
                for n_th in (0.2, 3.0):
                    p = BifreqParams(eta1, 0.0, n_r, 0.0, n_th)
                    cm = bifreq_received(p)
                    expected = 1.0 + 4.0 * eta1 * n_r - 2.0 * eta1 * n_th \
                        + 2.0 * n_th
                    assert cm.sigma_b[0, 0] == pytest.approx(expected, rel=1e-12)
                    assert cm.sigma_a[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_received_mixed_away_from_pure_boundary(self):
        for eta1 in (0.2, 0.9, 0.999):
            p = BifreqParams(eta1, 0.0, n_r=1.0, n=0.1, n_th=0.5)
            nu = core.symplectic_eigenvalues(bifreq_received(p).matrix)
            assert nu.min() > 1.0 + 1e-6

    def test_probe_is_valid_four_mode_state(self):
        p = BifreqParams(0.5, 0.0, n_r=2.0, n=0.3, n_th=4.0)
        probe = bifreq_probe(p)
        assert probe.n_modes == 4
        probe.validate()

    @pytest.mark.parametrize("n_r,n,n_th", [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0),
                                            (2.0, 0.3, 4.0), (1e-9, 5.0, 1e3)])
    def test_probe_entries_are_the_probe_terms(self, n_r, n, n_th):
        """T, S, T, S on the diagonal and C between the signal modes, as
        _probe_terms gives them; they are the hyperbolic entries of the
        squeezing 2r = 2 arcsinh sqrt(2 n_r)."""
        p = BifreqParams(0.5, 0.0, n_r=n_r, n=n, n_th=n_th)
        s, c, t = bifreq._probe_terms(p)
        want = np.diag([t, t, s, s, t, t, s, s])
        want[2, 6] = want[6, 2] = c
        want[3, 7] = want[7, 3] = -c
        sigma = bifreq_probe(p).sigma
        assert sigma.tolist() == want.tolist()
        r2 = 2.0 * np.arcsinh(np.sqrt(2.0 * n_r))
        assert (s, c) == pytest.approx(((1.0 + 2.0 * n) * np.cosh(r2),
                                        (1.0 + 2.0 * n) * np.sinh(r2)), rel=1e-14)


class TestFisherInformation:
    def test_h_c_closed_vs_numeric(self):
        for eta1 in (0.3, 0.7, 0.95):
            for n_th in (0.5, 2.0):
                p = BifreqParams(eta1, 0.0, n_r=1.2, n=0.1, n_th=n_th)
                fam = bifreq.classical_received_family(p)
                assert gaussian_qfi(fam) == pytest.approx(h_c_bifreq(p),
                                                          rel=1e-6)

    def test_h_c_zero_bath_limit(self):
        p = BifreqParams(0.6, 0.0, n_r=1.0, n=0.0, n_th=0.0)
        assert h_c_bifreq(p) == pytest.approx(p.n_s / 0.6)

    def test_h_c_zero_signal_leaves_thermal_term(self):
        p = BifreqParams(0.6, 0.0, n_r=0.0, n=0.0, n_th=2.0)
        dd = 1.0 + 2.0 * 2.0 * 0.4
        thermal_term = 4.0 * 4.0 * (dd ** 2 + 1.0) / (dd ** 4 - 1.0)
        assert h_c_bifreq(p) == pytest.approx(thermal_term, rel=1e-12)

    def test_h_c_matches_a_60_digit_unreduced_form(self):
        # 4 n_th^2 (dd^2 + 1) / (dd^4 - 1) + n_s / (eta1 dd), dd = 1 + 2 n_th
        # tau1, at 60 digits with the float inputs taken exactly: the reduced
        # closed form loses no digits to the cancellation in dd^4 - 1
        mp = pytest.importorskip("mpmath").mp
        eta1, n_th, n_s = np.meshgrid(np.linspace(0.05, 0.99, 20),
                                      np.geomspace(1e-12, 1e6, 20),
                                      np.linspace(0.2, 5.0, 6), indexing="ij")
        got = h_c_bifreq(BifreqParams(eta1, 0.0, n_s, 0.0, n_th))
        with mp.workdps(60):
            for h, e, n, s in zip(*(a.ravel().tolist() for a in (got, eta1, n_th, n_s))):
                e, n, s = mp.mpf(e), mp.mpf(n), mp.mpf(s)
                dd = 1 + 2 * n * (1 - e)
                reference = 4 * n ** 2 * (dd ** 2 + 1) / (dd ** 4 - 1) + s / (e * dd)
                assert abs(h / reference - 1) <= 1e-15, (e, n, s)

    def test_high_reflectivity_ratio_formula(self):
        # numeric ratio approaches the closed form as eta1 -> 1
        val = high_reflectivity_ratio(2.9, 1e3)
        assert val == pytest.approx(6.342105510, rel=1e-8)
        num = bifreq.ratio(BifreqParams(1.0 - 1e-8, 0.0, 2.9, 0.0, 1e3))
        assert num == pytest.approx(val, rel=5e-4)

    def test_ratio_matches_a_60_digit_monras_solve(self):
        # the anchor point of the high-reflectivity ratio, with the float
        # inputs taken exactly; the received state is restated in closed form
        # and differentiated numerically at 60 digits, and its QFI is the
        # 60-digit Monras solve of tests/oracles/monras.py
        mp = pytest.importorskip("mpmath").mp
        p = BifreqParams(1.0 - 1e-8, 0.0, 2.9, 0.0, 1e3)
        with mp.workdps(60):
            eta1, n_r, n_th = mp.mpf(p.eta1), mp.mpf(p.n_r), mp.mpf(p.n_th)
            s, c, temp = 1 + 4 * n_r, 2 * mp.sqrt(2 * n_r * (1 + 2 * n_r)), 1 + 2 * n_th

            def sigma(lam):
                eta2 = eta1 + lam
                a, b = eta1 * s + (1 - eta1) * temp, eta2 * s + (1 - eta2) * temp
                e = mp.sqrt(eta1 * eta2) * c
                return mp.matrix([[a, 0, e, 0], [0, a, 0, -e],
                                  [e, 0, b, 0], [0, -e, 0, b]])

            sig = sigma(0)
            np.testing.assert_allclose(bifreq_received(p).matrix,
                                       np.array(sig.tolist(), dtype=float), rtol=1e-15)
            dsig = [[mp.diff(lambda lam: sigma(lam)[i, j], 0) for j in range(4)]
                    for i in range(4)]
            h_q = monras.gaussian_qfi_mp(sig, dsig)
            dd = 1 + 2 * n_th * (1 - eta1)  # h_c_bifreq, with n_s = n_r at n = 0
            h_c = 4 * n_th ** 2 * (dd ** 2 + 1) / (dd ** 4 - 1) + n_r / (eta1 * dd)
            reference = float(h_q / h_c)
        assert reference == pytest.approx(6.3405851625, abs=1e-10)
        assert bifreq.ratio(p) == pytest.approx(reference, rel=1e-9)

    def test_high_noise_limit(self):
        assert high_noise_ratio(2.9) == pytest.approx(1.0 + 8.0 * 2.9 ** 2
                                                      / (4.0 * 2.9 + 1.0))
        assert high_reflectivity_ratio(2.9, 1e6) == pytest.approx(
            high_noise_ratio(2.9), rel=1e-5)

    def test_ratio_invariant_under_absorption_rescaling(self):
        # transmissivities scaled by e^{-mu L} on both probes: the chain-rule
        # factors cancel in the ratio
        p = BifreqParams(0.85, 0.0, n_r=1.5, n=0.0, n_th=2.0)
        base_q = h_q_bifreq(p)
        base_c = gaussian_qfi(bifreq.classical_received_family(p))
        k = np.exp(-0.3)
        scaled_q = jet(lambda l: bifreq_received(
            BifreqParams(0.85, k * l, 1.5, 0.0, 2.0)).to_state(), 0.0, 1e-5)
        scaled_c = jet(lambda l: bifreq_classical_constructive(
            BifreqParams(0.85, k * l, 1.5, 0.0, 2.0)), 0.0, 1e-5)
        r1 = base_q / base_c
        r2 = monras.gaussian_qfi(scaled_q) / monras.gaussian_qfi(scaled_c)
        assert abs(r1 - r2) < 1e-10 * r1

    def test_enhancement_region_grows_with_reflectivity(self):
        # wherever the quantum probe already wins, raising the reference
        # reflectivity by 0.05 does not lose the enhancement
        etas = (0.75, 0.80, 0.85, 0.90, 0.95)
        found_enhancement = False
        for n_r in (0.5, 2.9):
            for n_th in (0.5, 2.0, 10.0):
                ratios = [bifreq.ratio(BifreqParams(e, 0.0, n_r, 0.0, n_th))
                          for e in etas]
                for r1, r2 in zip(ratios, ratios[1:]):
                    if r1 > 1.0:
                        found_enhancement = True
                        assert r2 >= r1
        assert found_enhancement


class TestOptimalObservable:
    def test_closed_form_matches_numeric_sld(self):
        # the received state depends on n and n_r apart, not only through n_s
        for (eta1, n_r, n, n_th) in ((0.8, 1.5, 0.0, 2.0), (0.9, 2.9, 0.0, 5.0),
                                     (0.75, 0.8, 0.0, 1.0), (0.8, 1.5, 0.5, 2.0),
                                     (0.9, 1.0, 2.0, 1.0), (0.3, 0.5, 1.0, 3.0)):
            p = BifreqParams(eta1, 0.0, n_r, n, n_th)
            closed = optimal_coeffs(p)
            numeric = optimal_observable_numeric(p)
            assert closed.l11 == pytest.approx(numeric.l11, rel=1e-6)
            assert closed.l22 == pytest.approx(numeric.l22, rel=1e-6)
            assert closed.l12 == pytest.approx(numeric.l12, rel=1e-6)
            assert closed.l0 == pytest.approx(numeric.l0, rel=1e-4, abs=1e-7)

    def test_high_reflectivity_limits_match_general(self):
        limit = coeffs_high_reflectivity(2.9, 5.0)
        general = optimal_coeffs(BifreqParams(1.0 - 1e-8, 0.0, 2.9, 0.0, 5.0))
        assert limit.l11 == pytest.approx(general.l11, rel=1e-6)
        assert limit.l22 == pytest.approx(general.l22, rel=1e-6)
        assert limit.l12 == pytest.approx(general.l12, rel=1e-6)

    def test_noiseless_limit_is_photon_counting(self):
        # O = -(b1+ b1 - 1) - nu with b1 = -i(a2+ - mu a1): the coefficient
        # tuple is the affine image of the counter N_b = mu^2 n1 + n2 + 1
        # - mu (a1+ a2+ + a1 a2)
        n_s = 2.9
        c = coeffs_noiseless(n_s)
        mu2 = 1.0 + 1.0 / (2.0 * n_s)
        assert (c.l11, c.l22) == (pytest.approx(-mu2), pytest.approx(-1.0))
        assert c.l12 == pytest.approx(np.sqrt(mu2))
        assert c.l0 == pytest.approx(-(1.0 + 1.0 / (4.0 * n_s)))
        # consistency with the eta1 -> 1 display at vanishing noise
        limit = coeffs_high_reflectivity(n_s, 1e-9)
        assert limit.l11 == pytest.approx(c.l11, rel=1e-6)
        assert limit.l12 == pytest.approx(c.l12, rel=1e-6)

    def test_noiseless_observable_annihilates_received_state(self):
        # the received state on the noiseless slice is the b1 vacuum:
        # zero-variance null measurement
        n_s = 1.5
        r = np.arcsinh(np.sqrt(2.0 * n_s))
        st = core.tmsv(r)
        mean, var = observable_moments(st, as_quadratic(coeffs_noiseless(n_s)))
        assert var == pytest.approx(0.0, abs=1e-10)
        assert mean == pytest.approx(-1.0 / (4.0 * n_s), abs=1e-10)

    def test_unbiased_at_zero_and_offset_operating_points(self):
        p = BifreqParams(0.85, 0.0, 1.0, 0.0, 2.0)
        fam = matrix_family(bifreq.received_family(p))
        obs = optimal_observable(fam)
        mean, _ = observable_moments(fam.state, obs)
        assert mean == pytest.approx(0.0, abs=1e-9)
        p2 = BifreqParams(0.85, 1e-3, 1.0, 0.0, 2.0)
        fam2 = matrix_family(bifreq.received_family(p2))
        obs2 = optimal_observable(fam2)
        mean2, _ = observable_moments(fam2.state, obs2)
        assert mean2 == pytest.approx(1e-3, abs=1e-9)

    def test_variance_formula_value(self):
        p = BifreqParams(0.9, 0.0, 2.9, 0.0, 5.0)
        coeffs = optimal_coeffs(p)
        expected = 2.0 * p.n_s ** 2 * coeffs.l12 * (1.0 + p.n_s)
        assert variance_formula(p.n_s, coeffs.l12) == pytest.approx(expected, rel=1e-12)

    def test_singular_parameters_raise(self):
        with pytest.raises(ValueError):
            optimal_coeffs(BifreqParams(0.5, 0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("n_th_bath", ["1e78", "1e100"])
    def test_hot_bath_table_matches_the_sixty_digit_sld(self, n_th_bath, capsys):
        # the coefficients fall as 1/n_th, 1/n_th^2 and 1/n_th^3: at 1e100
        # about -1e-100, 2e-199 and -5e-298, none of which may read 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bifreq", "--set", "n_th_bath=" + n_th_bath]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = lines[0].split(",")
        rows = [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows) == 25
        for row in rows[::4]:
            p = BifreqParams(row["eta1"], 0.0, row["n_s"], 0.0, row["n_th"])
            oracle = matrix_family(bifreq.received_family(p))
            a_mat, h = monras.gaussian_sld_mp(oracle.state.sigma, oracle.dsigma)
            for name, (i, j) in (("l11", (0, 0)), ("l22", (2, 2)), ("l12", (0, 2))):
                want = float(2 * a_mat[i, j] / h)
                assert want != 0.0
                assert row[name] == pytest.approx(want, rel=1e-14, abs=0.0), name


class TestQcrbSaturation:
    @pytest.mark.parametrize("eta1", [0.75, 0.9, 0.95])
    def test_root_exists_and_brackets(self, eta1):
        for n_s in (0.5, 2.9, 5.0):
            root, bracket = qcrb_saturating_noise(eta1, n_s)
            assert bracket[0] <= root <= bracket[1]
            assert 0.0 < root < 1e4
            assert abs(bifreq.qcrb_gap(eta1, n_s, root)) < 1e-6


class TestJpaSynthesis:
    def test_no_squeezing_has_no_daggered_terms(self):
        _, _, v1, v2 = jpa_forward(0.3, 0.7, 0.0, 0.0, 0.1, 0.2, 0.4)
        assert abs(v1) == 0.0 and abs(v2) == 0.0

    @pytest.mark.parametrize("mu", [1.0, 1.5, 2.0, 2.5, 3.0, 10.0, 100.0])
    def test_solution_residual(self, mu):
        sol = jpa_synthesis(mu)
        resid = np.max(np.abs(jpa_identification_residual(np.array(sol), mu)))
        assert resid < 1e-13

    @pytest.mark.parametrize("mu", [1.0, 2.2, 3.0])
    def test_synthesized_mode_is_canonical(self, mu):
        u1, u2, v1, v2 = jpa_forward(*jpa_synthesis(mu))
        comm = abs(u1) ** 2 + abs(u2) ** 2 - abs(v1) ** 2 - abs(v2) ** 2
        assert comm == pytest.approx(1.0, abs=1e-10)

    def test_mu_below_one_rejected(self):
        with pytest.raises(ValueError):
            jpa_synthesis(0.5)
