import numpy as np
import pytest

from cvmw import channel, core, distill
from cvmw.entanglement import BipartiteCM, negativity, pts_eigenvalues
from cvmw.teleport import (TeleportResource, fidelity_2ps_general,
                           fidelity_concatenated, fidelity_finite_gain,
                           fidelity_gaussian, fidelity_heuristic,
                           fidelity_ps_tmsv, fidelity_swapped, gamma_of,
                           regaussify, swapped_finite_gain_params)

TABLE1 = dict(channel.TABLE1)


def lossy(length, geometry, **overrides):
    p = {**TABLE1, **overrides}
    ch = channel.AirChannel(p["mu"], length, p["n_th"], p["eta_ant"])
    return channel.lossy_tmst(ch, p["r"], p["n"], geometry)


def resource(kind, **overrides):
    p = {**TABLE1, **overrides}
    return TeleportResource(kind, p["r"], p["n"], p["mu"], p["n_th"],
                            p["eta_ant"], p["tau"], p.get("inv_gain", 0.0))


class TestGaussianFidelity:
    def test_symmetric_closed_form(self):
        cm = BipartiteCM.from_state(core.tmst(0.8, 0.1))
        alpha, _, gamma = cm.standard_params()
        nu_minus = alpha - gamma
        assert fidelity_gaussian(cm) == pytest.approx(1.0 / (1.0 + nu_minus))
        assert pts_eigenvalues(cm)[0] == pytest.approx(nu_minus)

    def test_classical_and_perfect_limits(self):
        # nu-tilde-minus -> 1 gives 1/2 (no entanglement), -> 0 gives 1
        no_ent = BipartiteCM.standard_form(1.0, 1.0, 0.0)
        assert fidelity_gaussian(no_ent) == pytest.approx(0.5)
        strong = BipartiteCM.from_state(core.tmsv(8.0))
        assert fidelity_gaussian(strong) == pytest.approx(1.0, abs=1e-6)

    def test_tmsv_closed_form(self):
        for r in (0.2, 0.8, 1.5):
            lam = np.tanh(r)
            cm = BipartiteCM.from_state(core.tmsv(r))
            assert fidelity_gaussian(cm) == pytest.approx((1.0 + lam) / 2.0,
                                                          rel=1e-12)

    def test_fidelity_between_zero_and_one_on_random_cms(self):
        rng = np.random.default_rng(13)
        from tests.test_core import random_valid_cm
        for _ in range(50):
            cm = BipartiteCM.from_matrix(random_valid_cm(rng), check=False)
            f = fidelity_gaussian(cm)
            assert 0.0 < f <= 1.0

    def test_monotone_in_nu_minus_for_symmetric_resources(self):
        nus = np.linspace(0.05, 1.5, 20)
        fids = [fidelity_gaussian(BipartiteCM.standard_form(
            1.0 + nu, 1.0 + nu, 1.0, check=False)) for nu in nus]
        assert all(b < a for a, b in zip(fids, fids[1:]))


class TestConcatenated:
    def test_k_one_reduces(self):
        cm = BipartiteCM.from_state(core.tmst(0.6, 0.05))
        assert fidelity_concatenated(cm, 1) == pytest.approx(
            fidelity_gaussian(cm), rel=1e-12)

    def test_strictly_decreasing_in_k(self):
        cm = BipartiteCM.from_state(core.tmst(0.6, 0.05))
        vals = [fidelity_concatenated(cm, k) for k in range(1, 6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_symmetric_closed_form(self):
        cm = BipartiteCM.from_state(core.tmst(0.7, 0.02))
        alpha, _, gamma = cm.standard_params()
        nu_minus = alpha - gamma
        for k in (1, 2, 5):
            assert fidelity_concatenated(cm, k) == pytest.approx(
                1.0 / (1.0 + (2 * k - 1) * nu_minus), rel=1e-12)

    def test_invalid_k(self):
        cm = BipartiteCM.from_state(core.tmsv(0.1))
        with pytest.raises(ValueError):
            fidelity_concatenated(cm, 0)


class TestPsTmsvFidelities:
    def test_zero_squeezing_gives_half(self):
        assert fidelity_ps_tmsv(0.0, 1) == pytest.approx(0.5)
        assert fidelity_ps_tmsv(0.0, 2) == pytest.approx(0.5)

    def test_unit_limit(self):
        for k in (1, 2):
            assert fidelity_ps_tmsv(1.0 - 1e-9, k) == pytest.approx(1.0,
                                                                    abs=1e-6)

    def test_crossing_with_bare_tmsv_exists(self):
        # subtraction wins at low squeezing, loses at high squeezing
        tau = 0.95
        gains = []
        for r in np.linspace(0.05, 1.5, 40):
            lam = np.tanh(r)
            bare = (1.0 + lam) / 2.0
            gains.append(fidelity_ps_tmsv(lam * tau, 1) - bare)
        assert gains[0] > 0.0 and gains[-1] < 0.0
        signs = np.sign(gains)
        assert np.sum(signs[:-1] != signs[1:]) == 1


class TestTmstChannelFidelities:
    def test_perfect_channel_strong_squeezing(self):
        cm = lossy(0.0, "asym", r=8.0, n=0.0)
        assert fidelity_gaussian(cm) == pytest.approx(1.0, abs=1e-6)

    def test_short_distance_geometries_agree_to_first_order(self):
        # the two geometries differ only at second order in mu L
        diff5 = abs(resource("tmst-asym").fidelity(5.0)
                    - resource("tmst-sym").fidelity(5.0))
        diff20 = abs(resource("tmst-asym").fidelity(20.0)
                     - resource("tmst-sym").fidelity(20.0))
        assert diff5 < 5e-8
        assert diff20 / diff5 == pytest.approx(16.0, rel=0.1)

    def test_classical_limit_distance_ideal(self):
        for kind in ("tmst-asym", "tmst-sym"):
            dist = resource(kind).classical_limit_distance()
            assert dist == pytest.approx(479.0, abs=1.0)


class TestTwoPhotonSubtraction:
    def test_reduces_to_tmsv_closed_form(self):
        tau = 0.95
        for r in (0.3, 0.8):
            lam = np.tanh(r)
            cm = BipartiteCM.from_state(core.tmsv(r))
            fbar, _ = fidelity_2ps_general(cm, tau)
            assert fbar == pytest.approx(fidelity_ps_tmsv(lam * tau, 1),
                                         abs=1e-10)

    def test_matches_heuristic_at_tau_to_one(self):
        cm = BipartiteCM.from_state(core.tmst(0.6, 0.05))
        f_prob, _ = fidelity_2ps_general(cm, 1.0 - 1e-9)
        f_heur, _ = fidelity_heuristic(cm)
        assert f_prob == pytest.approx(f_heur, abs=1e-8)

    def test_gain_vanishes_before_classical_limit(self):
        # the subtraction advantage crosses zero short of the 479 m point
        bare = resource("tmst-sym")
        ps = resource("2ps-prob-sym")
        classical = bare.classical_limit_distance()
        gains = [(length, ps.fidelity(length) - bare.fidelity(length))
                 for length in np.linspace(0.0, classical, 30)]
        assert gains[0][1] > 0.0
        crossings = [l for (l, g), (l2, g2) in zip(gains, gains[1:])
                     if g > 0.0 >= g2]
        assert crossings and crossings[0] < classical


class TestRegaussify:
    def test_fidelity_equality_across_distance_sweep(self):
        # the re-Gaussified resource reproduces the photon-subtracted
        # fidelity by construction
        for length in np.linspace(0.0, 450.0, 10):
            cm = lossy(length, "sym")
            out = distill.ps2_gaussian(cm, 0.95)
            f_ps, g = fidelity_2ps_general(cm, 0.95, outcome=out)
            rg, theta, valid = regaussify(out.cm(check=False), g, "sym")
            assert fidelity_gaussian(rg) == pytest.approx(f_ps, abs=1e-10)
            mach = distill.ps2_heuristic(cm)
            f_h, h = fidelity_heuristic(cm, mach)
            rg_h, _, _ = regaussify(cm, h, "sym")
            assert fidelity_gaussian(rg_h) == pytest.approx(f_h, abs=1e-10)

    def test_asym_regaussification_balances_blocks(self):
        cm = lossy(200.0, "asym")
        mach = distill.ps2_heuristic(cm)
        rg, theta, valid = regaussify(cm, mach.h, "asym")
        np.testing.assert_allclose(rg.sigma_a, rg.sigma_b, atol=1e-12)
        assert valid
        assert fidelity_gaussian(rg) == pytest.approx(
            fidelity_heuristic(cm)[0], abs=1e-10)

    def test_negativity_gains_at_source(self):
        cm = lossy(0.0, "sym")
        n_bare = negativity(cm)
        mach = distill.ps2_heuristic(cm)
        rg_h, _, ok_h = regaussify(cm, mach.h, "sym")
        out = distill.ps2_gaussian(cm, 0.95)
        rg_p, _, ok_p = regaussify(out.cm(check=False), out.g, "sym")
        assert ok_h and ok_p
        assert negativity(rg_h) / n_bare - 1.0 == pytest.approx(0.46, abs=0.01)
        assert negativity(rg_p) / n_bare - 1.0 == pytest.approx(0.28, abs=0.01)


class TestSwap:
    def test_no_correlations_no_benefit(self):
        assert fidelity_swapped(2.0, 3.0, 0.0) == pytest.approx(1.0 / 3.0)

    def test_reach_extension(self):
        bare = resource("tmst-asym").classical_limit_distance()
        swapped = resource("swap").classical_limit_distance()
        assert (swapped / bare - 1.0) == pytest.approx(0.14, abs=0.01)

    def test_gain_only_near_classical_limit(self):
        bare = resource("tmst-asym")
        es = resource("swap")
        assert es.fidelity(0.0) < bare.fidelity(0.0)
        classical = bare.classical_limit_distance()
        assert es.fidelity(classical) > bare.fidelity(classical)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            fidelity_swapped(2.0, 0.0, 1.0)


class TestFiniteGain:
    def test_infinite_gain_recovers_ideal(self):
        cm = lossy(150.0, "asym")
        alpha, beta, gamma = cm.standard_params()
        ideal = 1.0 / (1.0 + 0.5 * (alpha + beta - 2.0 * gamma))
        assert fidelity_finite_gain(alpha, beta, gamma, 1e14) == pytest.approx(
            ideal, rel=1e-6)
        assert fidelity_gaussian(cm) == pytest.approx(ideal, rel=1e-12)

    def test_swapped_finite_gain_recovers_ideal_submatrices(self):
        alpha, beta, gamma = 3.8, 4.5, 3.6
        a_inf, g_inf = swapped_finite_gain_params(alpha, beta, gamma, 1e14)
        a_id, g_id = distill.swap_symmetric(alpha, beta, gamma)
        assert a_inf == pytest.approx(a_id, rel=1e-6)
        assert g_inf == pytest.approx(g_id, rel=1e-6)

    def test_classical_limit_distances(self):
        assert resource("tmst-asym-fg", inv_gain=0.008).classical_limit_distance() \
            == pytest.approx(434.0, abs=1.0)
        assert resource("tmst-sym-fg", inv_gain=0.008).classical_limit_distance() \
            == pytest.approx(429.0, abs=1.0)
        assert resource("swap-fg", inv_gain=0.008).classical_limit_distance() \
            == pytest.approx(416.0, abs=1.0)

    def test_displaced_target_lowers_fidelity(self):
        cm = lossy(100.0, "asym")
        alpha, beta, gamma = cm.standard_params()
        f0 = fidelity_finite_gain(alpha, beta, gamma, 125.0, theta=0.0)
        f1 = fidelity_finite_gain(alpha, beta, gamma, 125.0, theta=2.0)
        assert f1 < f0


class TestGammaMatrix:
    def test_against_direct_assembly(self):
        cm = BipartiteCM.from_state(core.tmst(0.5, 0.1))
        sz = core.SIGMA_Z
        expected = (sz @ cm.sigma_a @ sz + cm.sigma_b - sz @ cm.eps
                    - cm.eps.T @ sz)
        np.testing.assert_allclose(gamma_of(cm), expected)

    def test_symmetric_standard_form(self):
        cm = BipartiteCM.standard_form(3.0, 3.0, 2.0)
        np.testing.assert_allclose(gamma_of(cm), 2.0 * np.eye(2))


class TestResourceBounds:
    @pytest.mark.parametrize("kind", ["tmst-asym-fg", "tmst-sym-fg", "swap-fg"])
    @pytest.mark.parametrize("inv_gain", [0.0, -0.008, float("nan"), float("inf")])
    def test_finite_gain_needs_positive_finite_inv_gain(self, kind, inv_gain):
        with pytest.raises(ValueError):
            resource(kind, inv_gain=inv_gain)

    @pytest.mark.parametrize("kind,geometry", [
        ("tmst-asym", "asym"), ("tmst-sym", "sym"), ("2ps-prob-asym", "asym"),
        ("2ps-prob-sym", "sym"), ("2ps-heur-asym", "asym"),
        ("2ps-heur-sym", "sym"), ("swap", "asym"), ("tmst-asym-fg", "asym"),
        ("tmst-sym-fg", "sym"), ("swap-fg", "asym")])
    def test_geometry(self, kind, geometry):
        assert resource(kind).geometry == geometry
