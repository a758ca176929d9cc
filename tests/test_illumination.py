import re

import numpy as np
import pytest

from cvmw import core, illumination
from cvmw.entanglement import BipartiteCM, pts_eigenvalues
from cvmw.estimation import RegularizationError, gaussian_qfi
from cvmw.illumination import (QiParams, eta_eff, gain, h_c, h_q, qi_probe,
                               received_params)
from tests.oracles.general import partial_trace
from tests.oracles.routes import (eta_eff_iterated, probe_nu_minus_mp,
                                  qi_received_constructive)


def qi_received(params):
    return BipartiteCM.standard_form(*received_params(params))


class TestEtaEff:
    def test_no_absorption(self):
        assert eta_eff(0.3, 0.0) == 0.3

    def test_infinite_absorption(self):
        assert eta_eff(0.3, 1e3) == pytest.approx(0.0, abs=1e-300)

    def test_iterated_splitter_composition_converges(self):
        for gamma in (0.1, 0.5, 1.5):
            approx = eta_eff_iterated(gamma, n_doublings=20)
            assert approx == pytest.approx(np.exp(-gamma), rel=1e-5)


class TestProbe:
    def test_physical_on_grid(self):
        for n_s in np.linspace(0.0, 5.0, 6):
            for n_th in np.linspace(0.0, 5.0, 6):
                probe = qi_probe(n_s, n_th)
                nu = probe.symplectic_eigenvalues()
                assert nu.min() > 1.0 - 1e-9

    def test_zero_bath_matches_tmsv_block(self):
        n_s = 1.3
        probe = qi_probe(n_s, 0.0)
        block = partial_trace(probe, keep=(1, 2))
        r = np.arcsinh(np.sqrt(n_s))
        np.testing.assert_allclose(block.sigma, core.tmsv(r).sigma, atol=1e-12)

    def test_signal_idler_nu_minus_closed_form(self):
        for n_s in (0.1, 0.9, 4.0):
            for n_th in (0.0, 0.7, 3.0):
                probe = qi_probe(n_s, n_th)
                block = BipartiteCM.from_state(
                    partial_trace(probe, keep=(1, 2)))
                assert pts_eigenvalues(block)[0] == pytest.approx(
                    illumination.probe_nu_minus(n_s, n_th), abs=1e-12)

    def test_entanglement_condition(self):
        # entangled exactly when n_s > 0 and n_th < 1
        assert illumination.probe_nu_minus(0.5, 0.5) < 1.0
        assert illumination.probe_nu_minus(0.5, 1.5) > 1.0
        assert illumination.probe_nu_minus(0.0, 0.5) == pytest.approx(1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            qi_probe(-0.1, 0.0)

    @pytest.mark.parametrize("n_s,n_th", [(1e308, 0.0), (1.0, 1e308), (1e200, 0.0),
                                          (float("nan"), 0.0)])
    def test_non_finite_pair_names_n_s_and_n_th(self, n_s, n_th):
        """An entry that overflows, or a NaN, stops before the pair is
        rounded: one line names both fields."""
        with pytest.raises(OverflowError, match=re.escape("n_s = %g, n_th = %g" % (n_s, n_th))):
            qi_probe(n_s, n_th)

    def test_nu_minus_matches_60_digits(self):
        """D = 1 + 2 n_th (1 + 2 n_s) over the larger eigenvalue: no
        difference of two large numbers, so no NaN at large n_s."""
        n_s, n_th = np.meshgrid(np.geomspace(1e-4, 1e8, 49), np.geomspace(1e-4, 1e6, 41))
        got = illumination.probe_nu_minus(n_s, n_th)
        want = np.vectorize(probe_nu_minus_mp)(n_s, n_th)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_nu_minus_at_unit_bath_is_one_to_an_ulp(self):
        """At n_th = 1, D = 3 + 4 n_s equals the larger eigenvalue: the probe
        sits on the separability boundary for every n_s."""
        for n_s in (np.linspace(0.01, 5.0, 100), np.geomspace(1e-4, 1e8, 1001)):
            nu = illumination.probe_nu_minus(n_s, 1.0)
            assert np.abs(nu - 1.0).max() <= np.spacing(1.0)

    def test_nu_minus_at_unit_bath_is_exactly_one(self):
        """From n_th = 1 up the root is sqrt((1 + 2 n_s)^2 + (n_th - 1)(n_th
        + 1)), exactly 1 + 2 n_s at n_th = 1, so the denominator equals D bit
        for bit: no signal strength reads the separable probe as entangled."""
        n_s = np.geomspace(1e-4, 1e8, 20001)
        assert (illumination.probe_nu_minus(n_s, 1.0) == 1.0).all()
        for x in (0.01, 7.116, 15.02, 1e8):
            assert illumination.probe_nu_minus(x, 1.0) == 1.0

    def test_nu_minus_is_within_two_ulps_of_60_digits(self):
        """Both roots, either side of n_th = 1, sum non-negative terms."""
        n_s, n_th = np.meshgrid(np.geomspace(1e-4, 1e8, 60), np.geomspace(1e-4, 1e6, 60))
        got = illumination.probe_nu_minus(n_s, n_th)
        want = np.vectorize(lambda a, b: float(probe_nu_minus_mp(a, b)))(n_s, n_th)
        assert np.abs(got / want - 1.0).max() <= 2.0 * np.finfo(float).eps


class TestReceived:
    def test_constructive_equals_closed_form_on_grid(self):
        for n_s in (0.2, 1.0, 3.0):
            for n_th in (0.1, 1.0, 4.0):
                for gamma in (0.0, 0.4, 2.0):
                    for eta in (0.0, 0.3, 0.9):
                        p = QiParams(n_s, n_th, gamma, eta)
                        np.testing.assert_allclose(
                            qi_received(p).matrix,
                            qi_received_constructive(p).matrix, atol=1e-12)

    def test_infinite_loss_leaves_uncorrelated_bath_and_idler(self):
        p = QiParams(0.8, 1.2, gamma=50.0, eta=0.7)
        cm = qi_received(p)
        np.testing.assert_allclose(cm.eps, 0.0, atol=1e-12)
        np.testing.assert_allclose(cm.sigma_a,
                                   (1.0 + 2.0 * p.n_th) * np.eye(2), atol=1e-10)

    def test_zero_reflectivity_kills_correlations(self):
        cm = qi_received(QiParams(0.8, 1.2, 0.3, 0.0))
        np.testing.assert_allclose(cm.eps, 0.0)


class TestFisherInformation:
    def test_h_q_closed_vs_numeric_grid(self):
        for n_s in (0.2, 1.0):
            for n_th in (0.3, 2.0):
                for gamma in (0.0, 0.5):
                    p = QiParams(n_s, n_th, gamma, 1e-4)
                    fam = illumination.received_family(p)
                    assert gaussian_qfi(fam) == pytest.approx(h_q(p), rel=1e-6)

    def test_h_c_closed_vs_numeric_grid(self):
        for n_s in (0.2, 1.0):
            for n_th in (0.3, 2.0):
                p = QiParams(n_s, n_th, 0.25, 1e-4)
                fam = illumination.classical_received_family(p)
                assert gaussian_qfi(fam) == pytest.approx(h_c(p), rel=1e-6)

    def test_gain_is_ratio(self):
        p = QiParams(0.7, 1.3, 0.6, 0.0)
        assert gain(p) == pytest.approx(h_q(p) / h_c(p), rel=1e-12)

    def test_gain_independent_of_absorption(self):
        p0 = QiParams(0.7, 1.3, 0.0, 0.0)
        for gamma in (0.1, 1.0, 10.0):
            p = QiParams(0.7, 1.3, gamma, 0.0)
            assert abs(gain(p) - gain(p0)) < 1e-12
            assert abs(h_q(p) / h_c(p) - h_q(p0) / h_c(p0)) < 1e-12

    def test_infinite_absorption_kills_both_fisher_informations(self):
        p = QiParams(0.7, 1.3, 500.0, 0.0)
        assert h_q(p) == pytest.approx(0.0, abs=1e-300)
        assert h_c(p) == pytest.approx(0.0, abs=1e-300)
        assert gain(p) == pytest.approx(gain(QiParams(0.7, 1.3, 0.0, 0.0)))

    def test_three_db_limit(self):
        assert gain(QiParams(1e-4, 1e4)) == pytest.approx(2.0, abs=1e-3)

    def test_zero_signal_shadow_free(self):
        assert h_q(QiParams(0.0, 1.0)) == 0.0

    def test_gain_at_least_one_on_grid(self):
        for n_s in np.geomspace(0.01, 5.0, 8):
            for n_th in np.geomspace(0.01, 5.0, 8):
                assert gain(QiParams(n_s, n_th)) >= 1.0

    def test_zero_bath_rejected_for_h_q(self):
        with pytest.raises(RegularizationError):
            h_q(QiParams(0.5, 0.0))
