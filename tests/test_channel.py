import warnings

import numpy as np
import pytest

from cvmw import channel, core
from cvmw.channel import (AirChannel, LinkGeometry, aperture_product_threshold,
                          bose_einstein, eta_env, eta_env_inhomogeneous,
                          eta_threshold_asym, eta_threshold_sym,
                          fspl, friis, hemt_amplify, hemt_gain, l_max,
                          load_profile, lossy_tmst, parse_profile,
                          tau_diffraction, tau_path)
from cvmw.entanglement import BipartiteCM, negativity, pts_eigenvalues
from tests.oracles.routes import lossy_tmst_constructive

TABLE1 = channel.TABLE1


class TestBoseEinstein:
    def test_room_temperature_microwaves(self):
        assert bose_einstein(5e9, 300.0) == pytest.approx(1250.0, abs=1.0)

    def test_cosmic_background(self):
        assert bose_einstein(5e9, 2.7) == pytest.approx(11.0, abs=0.5)

    def test_optical_limit(self):
        assert bose_einstein(500e12, 300.0) < 1e-30

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bose_einstein(0.0, 300.0)


class TestAttenuation:
    def test_homogeneous_value(self):
        ch = AirChannel(1.44e-6, 550.0, 1250.0)
        assert eta_env(ch) == pytest.approx(7.9168e-4, rel=1e-3)

    def test_monotone_in_length_and_density(self):
        vals = [eta_env(AirChannel(1.44e-6, length, 0.0))
                for length in (0.0, 100.0, 500.0, 5000.0)]
        assert all(0.0 <= a < b < 1.0 for a, b in zip(vals, vals[1:]))
        assert eta_env(AirChannel(2e-6, 500.0, 0.0)) > eta_env(
            AirChannel(1e-6, 500.0, 0.0))

    def test_inhomogeneous_reduces_to_homogeneous(self):
        eta, n_eff = eta_env_inhomogeneous(lambda x: 1.44e-6,
                                           lambda x: 1250.0, 550.0)
        assert eta == pytest.approx(eta_env(AirChannel(1.44e-6, 550.0, 0.0)),
                                    rel=1e-10)
        assert n_eff == pytest.approx(1250.0, rel=1e-10)

    def test_inhomogeneous_weighted_occupation_bounded(self):
        # occupation falls along the path: the effective value sits between
        # the endpoint values and below the maximum
        n_fn = lambda x: 1250.0 - 2.0 * x
        eta, n_eff = eta_env_inhomogeneous(lambda x: 1e-5, n_fn, 100.0)
        assert 1050.0 <= n_eff <= 1250.0

    def test_inhomogeneous_with_varying_attenuation(self):
        # total attenuation is the integral of mu(x); occupation average is
        # weighted toward the strongly attenuating stretch
        mu_fn = lambda x: 1e-5 * (1.0 + x / 100.0)
        n_fn = lambda x: 100.0 + x
        eta, n_eff = eta_env_inhomogeneous(mu_fn, n_fn, 100.0)
        total = 1e-5 * (100.0 + 50.0)
        assert eta == pytest.approx(-np.expm1(-total), rel=1e-9)
        assert 100.0 < n_eff < 200.0
        assert n_eff > 150.0  # more weight where mu(x) is larger

    @pytest.mark.parametrize("mu_fn,n_fn", [
        (lambda x: 2e-3 * np.exp(-x / 200.0),
         lambda x: 300.0 + 500.0 * np.exp(-x / 100.0)),
        # needs 512 nodes: 128 are 1% off and 256 are 8e-6 off
        (lambda x: 2e-3 * (1.0 + np.sin(x / 5.0) ** 2),
         lambda x: 300.0 + 200.0 * np.cos(x / 3.0)),
    ], ids=["exponential-decay", "oscillating"])
    def test_inhomogeneous_matches_nested_adaptive_quadrature(self, mu_fn, n_fn):
        from scipy.integrate import quad
        length = 1000.0
        total = quad(mu_fn, 0.0, length, epsrel=1e-12, limit=200)[0]
        weighted = quad(lambda x: mu_fn(x) * n_fn(x) * np.exp(
            -quad(mu_fn, x, length, epsrel=1e-12, limit=200)[0]),
            0.0, length, epsrel=1e-12, limit=200)[0]
        eta = -np.expm1(-total)
        assert eta_env_inhomogeneous(mu_fn, n_fn, length) == pytest.approx(
            (eta, weighted / eta), rel=1e-10)

    def test_inhomogeneous_without_convergence_raises(self):
        # mu steps every metre: no two successive orders up to 1024 nodes agree
        mu_fn = lambda x: 2e-3 if x % 2.0 < 1.0 else 1e-3
        with pytest.raises(RuntimeError, match="failed to converge"):
            eta_env_inhomogeneous(mu_fn, lambda x: 1.0, 1000.0)

    def test_inhomogeneous_builds_each_rule_once(self, monkeypatch):
        mu_fn = lambda x: 2e-3 * (1.0 + np.sin(x / 5.0) ** 2)
        n_fn = lambda x: 300.0 + 200.0 * np.cos(x / 3.0)
        first = eta_env_inhomogeneous(mu_fn, n_fn, 1000.0)

        def rebuilt(order):
            raise AssertionError("Gauss-Legendre rule of order %d rebuilt" % order)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuilt)
        assert eta_env_inhomogeneous(mu_fn, n_fn, 1000.0) == first


class TestLossyTmst:
    def test_zero_distance_is_source_state(self):
        ch = AirChannel(1.44e-6, 0.0, 1250.0, 0.0)
        cm = lossy_tmst(ch, 1.0, 0.01, "asym")
        np.testing.assert_allclose(cm.matrix, core.tmst(1.0, 0.01).sigma,
                                   atol=1e-12)

    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_constructive_route_agrees(self, geometry):
        for length in (0.0, 150.0, 480.0):
            for eta_ant in (0.0, 1e-4):
                ch = AirChannel(1.44e-6, length, 1250.0, eta_ant)
                np.testing.assert_allclose(
                    lossy_tmst(ch, 1.0, 0.01, geometry).matrix,
                    lossy_tmst_constructive(ch, 1.0, 0.01, geometry).matrix,
                    atol=1e-12)

    def test_small_antenna_reflectivity_expansion(self):
        # nu_out = nu_in + (1/2 + N_th) eta_ant for eta_ant N_th << 1
        r, n, n_th = 1.0, 1e-2, 1250.0
        nu_in = (1.0 + 2.0 * n) * np.exp(-2.0 * r)
        for eta_ant in (1e-7, 1e-6):
            ch = AirChannel(0.0, 0.0, n_th, eta_ant)
            nu_out = pts_eigenvalues(lossy_tmst(ch, r, n, "asym"))[0]
            expected = nu_in + (0.5 + n_th) * eta_ant
            assert nu_out == pytest.approx(expected, rel=1e-3)

    def test_valid_over_parameter_ranges(self):
        for length in (0.0, 300.0, 550.0):
            for geometry in ("asym", "sym"):
                ch = AirChannel(1.44e-6, length, 1250.0, 0.0)
                cm = lossy_tmst(ch, 1.0, 0.01, geometry)
                cm.to_state().validate()


class TestReach:
    def test_asymmetric_reach(self):
        ch = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 0.0)
        assert l_max(ch, 1.0, 1e-2, "asym") == pytest.approx(550.0, abs=5.0)

    def test_symmetric_reach(self):
        ch = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 0.0)
        assert l_max(ch, 1.0, 1e-2, "sym") == pytest.approx(480.0, abs=5.0)

    def test_water_vapor_presets(self):
        targets = {channel.MU_WATER_VAPOR_AVG: (450.0, 390.0),
                   channel.MU_WATER_VAPOR_MAX: (400.0, 350.0)}
        for mu, (asym_t, sym_t) in targets.items():
            ch = AirChannel(mu, 0.0, TABLE1["n_th"], 0.0)
            assert l_max(ch, 1.0, 1e-2, "asym") == pytest.approx(
                asym_t, rel=0.02)
            assert l_max(ch, 1.0, 1e-2, "sym") == pytest.approx(
                sym_t, rel=0.02)

    def test_reach_zero_when_never_entangled(self):
        # thermal occupation above the e^{-r} sinh r threshold of the paper's
        # reflectivity bound, but the source is entangled (n < e^{r} sinh r)
        # and stays so up to the nu_minus = 1 crossing
        ch = AirChannel(1.44e-6, 0.0, 1250.0, 0.0)
        reach = l_max(ch, 0.5, 0.4, "asym")

        def nu(length):
            at = AirChannel(1.44e-6, length, 1250.0, 0.0)
            return pts_eigenvalues(lossy_tmst(at, 0.5, 0.4, "asym"))[0]

        assert reach == pytest.approx(205.48, abs=0.01)
        assert nu(reach - 0.01) < 1.0 < nu(reach + 0.01)
        assert nu(reach) == pytest.approx(1.0, abs=1e-12)
        # a source that is not entangled has zero reach
        assert l_max(ch, 0.5, 1.5, "asym") == 0.0

    def test_asym_exceeds_sym(self):
        ch = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 0.0)
        assert l_max(ch, 1.0, 1e-2, "asym") > l_max(ch, 1.0, 1e-2, "sym")

    def test_antenna_reflectivity_shortens_reach(self):
        perfect = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 0.0)
        lossy_ant = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 2e-4)
        for geometry in ("asym", "sym"):
            shorter = l_max(lossy_ant, 1.0, 1e-2, geometry)
            assert 0.0 < shorter < l_max(perfect, 1.0, 1e-2, geometry)
        # antenna alone consuming the whole budget leaves no reach
        blocked = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 0.5)
        assert l_max(blocked, 1.0, 1e-2, "asym") == 0.0

    def test_consistency_with_pts_eigenvalue(self):
        ch0 = AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], 0.0)
        reach = l_max(ch0, 1.0, 1e-2, "asym")
        at_reach = AirChannel(TABLE1["mu"], reach, TABLE1["n_th"], 0.0)
        nu = pts_eigenvalues(lossy_tmst(at_reach, 1.0, 1e-2, "asym"))[0]
        assert nu == pytest.approx(1.0, abs=1e-4)

    def test_symmetric_reach_matches_numeric_root(self):
        self.check_against_numeric_root("sym")

    def test_asymmetric_reach_matches_numeric_root(self):
        self.check_against_numeric_root("asym")

    @staticmethod
    def check_against_numeric_root(geometry):
        from scipy.optimize import brentq

        rng = np.random.default_rng(7)
        for _ in range(24):
            mu = TABLE1["mu"] * rng.uniform(0.5, 2.0)
            n_th = TABLE1["n_th"] * rng.uniform(0.5, 2.0)
            eta_ant = rng.choice([0.0, rng.uniform(0.0, 1e-4)])
            r, n = rng.uniform(0.8, 1.25), rng.uniform(0.0, 0.02)

            def gap(length):
                ch = AirChannel(mu, length, n_th, eta_ant)
                return pts_eigenvalues(lossy_tmst(ch, r, n, geometry))[0] - 1.0

            reach = l_max(AirChannel(mu, 0.0, n_th, eta_ant), r, n, geometry)
            assert reach == pytest.approx(brentq(gap, 0.0, 5000.0, xtol=1e-10),
                                          abs=1e-6)
            assert abs(gap(reach)) <= 1e-12

    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_zero_attenuation_raises_without_warning(self, geometry):
        ch = AirChannel(0.0, 0.0, TABLE1["n_th"], 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mu = 0"):
                l_max(ch, 1.0, 1e-2, geometry)
        # a source that is not entangled still has zero reach
        assert l_max(ch, 0.5, 1.5, geometry) == 0.0

    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_noiseless_environment_never_ends_entanglement(self, geometry):
        ch = AirChannel(TABLE1["mu"], 0.0, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not reached"):
                l_max(ch, 1.0, 1e-2, geometry)


class TestAmplification:
    def test_unit_gain_is_identity(self):
        cm = BipartiteCM.from_state(core.tmst(0.8, 0.1))
        out = hemt_amplify(cm, 1.0, 20.0, modes=(0,))
        np.testing.assert_allclose(out.matrix, cm.matrix, atol=1e-12)

    def test_hemt_destroys_entanglement(self):
        g = hemt_gain(20.0, 1e-2)
        assert g == pytest.approx(2000.0)
        cm = BipartiteCM.from_state(core.tmst(1.0, 1e-2))
        out = hemt_amplify(cm, g, 20.0, modes=(0,))
        assert pts_eigenvalues(out)[0] > 1.0
        assert negativity(out) == 0.0

    def test_never_increases_negativity(self):
        rng = np.random.default_rng(8)
        from tests.test_core import random_valid_cm
        count = 0
        while count < 200:
            cm_mat = random_valid_cm(rng)
            cm = BipartiteCM.from_matrix(cm_mat, check=False)
            g = rng.uniform(1.0, 20.0)
            n_h = rng.uniform(0.0, 5.0)
            out = hemt_amplify(cm, g, n_h, modes=(rng.integers(0, 2),))
            assert negativity(out) <= negativity(cm) + 1e-12
            count += 1

    def test_gain_below_one_rejected(self):
        cm = BipartiteCM.from_state(core.tmsv(0.1))
        with pytest.raises(ValueError):
            hemt_amplify(cm, 0.9, 1.0)


class TestLinkBudget:
    def test_fspl_reference_point(self):
        _, db = fspl(5e9, 1000.0)
        assert db == pytest.approx(106.4, abs=0.05)

    def test_doubling_distance_adds_six_db(self):
        _, db1 = fspl(5e9, 1000.0)
        _, db2 = fspl(5e9, 2000.0)
        assert db2 - db1 == pytest.approx(20.0 * np.log10(2.0), abs=1e-12)

    def test_friis_equals_tau_path(self):
        geom = LinkGeometry(nu=5e9, d=1e5, a=3.0, e_a=0.7)
        assert friis(geom) == pytest.approx(tau_path(geom), rel=1e-12)

    def test_diffraction_recovers_path_transmissivity_far_field(self):
        # a_R = w0 = a/2, r0 = d, e_a = 1 in the far field
        lam = 0.06
        nu = channel.LIGHT_SPEED / lam
        w0 = 2.0
        rayleigh = np.pi * w0 ** 2 / (2.0 * lam)
        d = 40.0 * rayleigh
        geom = LinkGeometry(nu=nu, d=d, a=2.0 * w0, e_a=1.0, w0=w0, a_r=w0,
                            r0=d)
        assert tau_diffraction(geom) == pytest.approx(tau_path(geom), rel=0.05)

    def test_diffraction_transmissivity_in_unit_interval(self):
        lam = channel.LIGHT_SPEED / 5e9
        rayleigh = np.pi * 2.0 ** 2 / (2.0 * lam)
        for d in np.geomspace(10.0, 1e7, 12):
            geom = LinkGeometry(nu=5e9, d=d, a=4.0, w0=2.0, a_r=4.0, r0=d)
            tau = tau_diffraction(geom)
            assert 0.0 < tau <= 1.0
            if d > rayleigh:  # below it the value saturates to 1 in floats
                assert tau < 1.0


class TestSatelliteThresholds:
    def test_asymmetric_threshold(self):
        assert eta_threshold_asym(11.0) == pytest.approx(0.0833, abs=1e-4)

    def test_symmetric_threshold(self):
        assert eta_threshold_sym(11.0, 1.0) == pytest.approx(0.0378, abs=1e-3)

    def test_region_constant(self):
        thr = aperture_product_threshold(0.06, 0.038, 1.0)
        assert thr == pytest.approx(0.035, abs=5e-4)

    def test_aperture_product_at_one_kilometer(self):
        assert aperture_product_threshold(0.06, 0.038, 1000.0) == \
            pytest.approx(35.0, abs=1.0)


class TestProfiles:
    def test_parse_sections_and_comments(self):
        text = """
        # reference parameters
        [channel]
        mu = 1.44e-6  # 1/m
        n_th = 1250
        [source]
        r = 1.0
        """
        params = parse_profile(text)
        assert params == {"mu": 1.44e-6, "n_th": 1250.0, "r": 1.0}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_profile("mu 1.44e-6")

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("[channel]\nmu = 2.0e-6\nn_th = 600\n")
        assert load_profile(path) == {"mu": 2.0e-6, "n_th": 600.0}

    def test_table1_preset_contents(self):
        assert TABLE1["mu"] == 1.44e-6
        assert TABLE1["n_th"] == 1250.0
        assert TABLE1["tau"] == 0.95

    def test_shipped_profile_matches_builtin_preset(self):
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "profiles" / "table1.txt"
        loaded = load_profile(path)
        for key, value in TABLE1.items():
            assert loaded[key] == pytest.approx(value)


class TestAirChannelBounds:
    @pytest.mark.parametrize("field", ["mu", "L", "n_th_env", "eta_ant"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, bad):
        args = {"mu": 1.44e-6, "L": 100.0, "n_th_env": 1250.0, "eta_ant": 0.0}
        args[field] = bad
        with pytest.raises(ValueError):
            AirChannel(**args)

    def test_rejects_negative_thermal_photons(self):
        with pytest.raises(ValueError):
            AirChannel(1.44e-6, 100.0, -5.0)
