import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cvmw import channel, core, distill
from cvmw.distill import ps2_fidelity
from cvmw.entanglement import BipartiteCM, negativity, pts_eigenvalues
from cvmw.teleport import (BEYOND_MAX, MAX_DISTANCE, ROOT_GRID, ROOT_RTOL,
                           TeleportResource, anderson_bjorck,
                           fidelity_2ps_general, fidelity_concatenated,
                           fidelity_finite_gain, fidelity_heuristic,
                           fidelity_ps_tmsv, gamma_of, half_fidelity_condition,
                           swap_condition, swapped_finite_gain_params)
from tests.oracles.general import regaussify
from tests.oracles.routes import (classical_limit_array_bracket,
                                  classical_limit_full_bracket, classical_limit_mp,
                                  half_fidelity_poly_array, heuristic_factor_mp,
                                  l_max_condition_array, poly, poly_mul,
                                  ps2_fidelity_mp, tmst_polys_array)

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
        assert fidelity_concatenated(cm, 1) == pytest.approx(1.0 / (1.0 + nu_minus))
        assert pts_eigenvalues(cm)[0] == pytest.approx(nu_minus)

    def test_classical_and_perfect_limits(self):
        # nu-tilde-minus -> 1 gives 1/2 (no entanglement), -> 0 gives 1
        no_ent = BipartiteCM.standard_form(1.0, 1.0, 0.0)
        assert fidelity_concatenated(no_ent, 1) == pytest.approx(0.5)
        strong = BipartiteCM.from_state(core.tmsv(8.0))
        assert fidelity_concatenated(strong, 1) == pytest.approx(1.0, abs=1e-6)

    def test_tmsv_closed_form(self):
        for r in (0.2, 0.8, 1.5):
            lam = np.tanh(r)
            cm = BipartiteCM.from_state(core.tmsv(r))
            assert fidelity_concatenated(cm, 1) == pytest.approx((1.0 + lam) / 2.0,
                                                                 rel=1e-12)

    def test_fidelity_between_zero_and_one_on_random_cms(self):
        rng = np.random.default_rng(13)
        from tests.test_core import random_valid_cm
        for _ in range(50):
            cm = BipartiteCM.from_matrix(random_valid_cm(rng), check=False)
            f = fidelity_concatenated(cm, 1)
            assert 0.0 < f <= 1.0

    def test_monotone_in_nu_minus_for_symmetric_resources(self):
        nus = np.linspace(0.05, 1.5, 20)
        fids = [fidelity_concatenated(BipartiteCM.standard_form(
            1.0 + nu, 1.0 + nu, 1.0, check=False), 1) for nu in nus]
        assert all(b < a for a, b in zip(fids, fids[1:]))


class TestConcatenated:
    def test_k_one_reduces(self):
        cm = BipartiteCM.from_state(core.tmst(0.6, 0.05))
        alpha, beta, gamma = cm.standard_params()
        assert fidelity_concatenated(cm, 1) == pytest.approx(
            1.0 / (1.0 + 0.5 * (alpha + beta - 2.0 * gamma)), rel=1e-12)

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

    def test_nonpositive_determinant_rejected(self):
        # Gamma = diag(-4, 0): det[I + (k - 1/2) Gamma] = 1 - 4 (k - 1/2) < 0;
        # alpha + beta - 2 gamma = -2: det[I + Gamma/2] = 0
        indefinite = BipartiteCM(np.diag([-4.0, 0.0]), np.zeros((2, 2)),
                                 np.zeros((2, 2)), check=False)
        singular = BipartiteCM.standard_form(1.0, 1.0, 2.0, check=False)
        for cm, k in ((indefinite, 1), (indefinite, 2), (singular, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="det"):
                    fidelity_concatenated(cm, k)


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
        assert fidelity_concatenated(cm, 1) == pytest.approx(1.0, abs=1e-6)

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


PS2_KINDS = [kind for kind in TeleportResource.KINDS if kind.startswith("2ps")]


class TestTwoPsFidelityDigits:
    """The 2PS fidelities against ps2_fidelity_mp, 250 digits of the N form
    at the same float link triples. N cancels where beta << alpha, which is
    the asymmetric link at a high thermal occupation."""

    @pytest.mark.parametrize("n_th", [1250.0, 1e8, 1e12, 1e16, 1e40])
    @pytest.mark.parametrize("kind", PS2_KINDS)
    def test_within_a_few_ulps_of_250_digits(self, kind, n_th):
        res = resource(kind, n_th=n_th)
        prob = kind.startswith("2ps-prob")
        grid = np.linspace(0.0, 600.0, 13)
        triples = zip(*channel.tmst_params(res.mu, grid, res.n_th, res.eta_ant,
                                           res.r, res.n, res.geometry))
        want = [ps2_fidelity_mp(*triple, res.tau if prob else None)
                for triple in triples]
        # the probabilistic kinds keep ps2_standard_form's own rounding
        np.testing.assert_allclose(res.fidelity(grid), want,
                                   rtol=1e-12 if prob else 4e-15, atol=0.0)

    @pytest.mark.parametrize("n_th", [1e60, 1e160, 1e300])
    @pytest.mark.parametrize("kind", PS2_KINDS)
    def test_subtracted_kinds_at_huge_thermal_occupation(self, kind, n_th):
        """The subtraction is scaled by a power of two like the factor:
        unscaled, 2ps-prob-sym overflowed from n_th = 1e160. The reference
        restates the subtraction too, which cancels about 2 log10 alpha
        digits, and N about 3 log10 alpha more. On the asymmetric link the
        2ps-heur fidelity is of the order of 1/alpha^2, subnormal or zero
        from n_th = 1e160; at the scaled point the product N d of
        4 N d / (T^3 E) is of the order of 1/alpha^3 and underflows first."""
        res = resource(kind, n_th=n_th)
        prob = kind.startswith("2ps-prob")
        grid = np.linspace(0.0, 600.0, 13)
        triples = zip(*channel.tmst_params(res.mu, grid, res.n_th, res.eta_ant,
                                           res.r, res.n, res.geometry))
        want = [ps2_fidelity_mp(*triple, res.tau if prob else None,
                                250 + 5 * int(math.log10(max(triple))))
                for triple in triples]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = res.fidelity(grid)
        if prob:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        else:  # the reference may be subnormal
            np.testing.assert_allclose(got, want, rtol=4e-15, atol=1e-321)

    @pytest.mark.parametrize("n_th", [1e160, 1e300])
    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_heuristic_factor_at_huge_thermal_occupation(self, geometry, n_th):
        """1 + h of the link triple stays a normal float: near 1/alpha on the
        asymmetric link, where N at the scaled point is of its square."""
        res = resource("2ps-heur-" + geometry, n_th=n_th)
        triples = channel.tmst_params(res.mu, np.linspace(0.0, 600.0, 13), res.n_th,
                                      res.eta_ant, res.r, res.n, res.geometry)
        want = [float(heuristic_factor_mp(*triple,
                                          250 + 5 * int(math.log10(max(triple)))))
                for triple in zip(*triples)]
        np.testing.assert_allclose(distill.heuristic_factor(*triples), want,
                                   rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("kind", PS2_KINDS)
    def test_huge_thermal_occupation_stays_finite(self, kind):
        """At n_th = 1e160 no product of the scaled entries overflows."""
        res = resource(kind, n_th=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = res.fidelity(np.linspace(0.0, 600.0, 13))
            scalar = res.fidelity(10.0)
            length = res.classical_limit_distance()
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert math.isfinite(scalar) and scalar >= 0.0
        assert type(length) is float


def ps2_fidelity_composed(alpha, beta, gamma, tau):
    """The 2PS-prob fidelity composed of the library's parts:
    distill.heuristic_factor over 1 + S/2 at the triple of
    distill.ps2_standard_form."""
    a, b, g, _ = distill.ps2_standard_form(alpha, beta, gamma, tau)
    return distill.heuristic_factor(a, b, g) / (1.0 + 0.5 * (a + b - 2.0 * g))


# (alpha, beta, gamma, tau) that fail each check of the 2PS-prob route, with
# a row of the array inputs that passes them all
PS2_FAILURES = {
    "transmissivity": (3.0, 3.0, 2.0, 1.0),
    "singular X_A": (-19.0, 3.0, 0.0, 0.9),
    "singular Y": (3.0, 3.0, 6.0, 0.5),
    "E_0 <= 0": (3.0, 0.5, 1.0, 0.9),
}
PS2_PASSING_ROW = (3.0, 3.0, 2.0)


class TestPs2ProbKernel:
    """distill.ps2_fidelity with tau is one pass over the subtraction's
    numerators through the kernel of heuristic_factor: it never forms P, and
    it raises each error of the composed route."""

    def test_nothing_on_the_route_forms_the_success_probability(self, monkeypatch):
        grid = np.linspace(0.0, 600.0, 13)
        asym, sym = resource("2ps-prob-asym"), resource("2ps-prob-sym")

        def values():
            return (asym.classical_limit_distance(), sym.fidelity(300.0),
                    asym.fidelity(grid), sym.fidelity(grid))
        want = values()

        def refuse(*args):
            raise AssertionError("the success probability was formed")
        monkeypatch.setattr(distill, "ps2_standard_form", refuse)
        got = values()
        assert got[0] == want[0] and got[1] == want[1]
        assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])

    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    @pytest.mark.parametrize("message", PS2_FAILURES)
    def test_raises_each_error_of_the_composed_route(self, message, array):
        *triple, tau = PS2_FAILURES[message]
        if array:
            triple = [np.array([good, bad]) for good, bad in zip(PS2_PASSING_ROW, triple)]
        with pytest.raises(ValueError, match=re.escape(message)) as composed:
            ps2_fidelity_composed(*triple, tau)
        with pytest.raises(ValueError) as kernel:
            ps2_fidelity(*triple, tau)
        assert str(kernel.value) == str(composed.value)


class TestRegaussify:
    def test_fidelity_equality_across_distance_sweep(self):
        # the re-Gaussified resource reproduces the photon-subtracted
        # fidelity by construction
        for length in np.linspace(0.0, 450.0, 10):
            cm = lossy(length, "sym")
            out = distill.ps2_gaussian(cm, 0.95)
            f_ps, g = fidelity_heuristic(out.cm, out.heuristic)
            rg, theta, valid = regaussify(out.cm, g, "sym")
            assert fidelity_concatenated(rg, 1) == pytest.approx(f_ps, abs=1e-10)
            mach = distill.ps2_heuristic(cm)
            f_h, h = fidelity_heuristic(cm, mach)
            rg_h, _, _ = regaussify(cm, h, "sym")
            assert fidelity_concatenated(rg_h, 1) == pytest.approx(f_h, abs=1e-10)

    def test_asym_regaussification_balances_blocks(self):
        cm = lossy(200.0, "asym")
        mach = distill.ps2_heuristic(cm)
        rg, theta, valid = regaussify(cm, mach.h, "asym")
        np.testing.assert_allclose(rg.sigma_a, rg.sigma_b, atol=1e-12)
        assert valid
        assert fidelity_concatenated(rg, 1) == pytest.approx(
            fidelity_heuristic(cm)[0], abs=1e-10)

    def test_negativity_gains_at_source(self):
        cm = lossy(0.0, "sym")
        n_bare = negativity(cm)
        mach = distill.ps2_heuristic(cm)
        rg_h, _, ok_h = regaussify(cm, mach.h, "sym")
        out = distill.ps2_gaussian(cm, 0.95)
        rg_p, _, ok_p = regaussify(out.cm, out.g, "sym")
        # at the source both re-Gaussified states have D = alpha beta -
        # gamma^2 < 1, so a symplectic eigenvalue below 1: not valid states,
        # but their negativities carry the paper's gains
        assert not ok_h and not ok_p
        assert negativity(rg_h) / n_bare - 1.0 == pytest.approx(0.46, abs=0.01)
        assert negativity(rg_p) / n_bare - 1.0 == pytest.approx(0.28, abs=0.01)


class TestSwap:
    def test_no_correlations_no_benefit(self):
        alpha_t, gamma_t = swapped_finite_gain_params(2.0, 3.0, 0.0, np.inf)
        assert fidelity_finite_gain(alpha_t, alpha_t, gamma_t, np.inf) == 1.0 / 3.0

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
        for beta in (0.0, -1.0, np.array([2.0, 0.0])):
            for gain in (125.0, np.inf):
                with pytest.raises(ValueError, match="beta must be positive"):
                    swapped_finite_gain_params(2.0, beta, 1.0, gain)


class TestFiniteGain:
    def test_infinite_gain_recovers_ideal(self):
        cm = lossy(150.0, "asym")
        alpha, beta, gamma = cm.standard_params()
        ideal = 1.0 / (1.0 + 0.5 * (alpha + beta - 2.0 * gamma))
        assert fidelity_finite_gain(alpha, beta, gamma, 1e14) == pytest.approx(
            ideal, rel=1e-6)
        assert fidelity_finite_gain(alpha, beta, gamma, np.inf) == pytest.approx(
            ideal, rel=1e-15)
        assert fidelity_concatenated(cm, 1) == pytest.approx(ideal, rel=1e-12)

    def test_swapped_finite_gain_recovers_ideal_submatrices(self):
        alpha, beta, gamma = 3.8, 4.5, 3.6
        a_large, g_large = swapped_finite_gain_params(alpha, beta, gamma, 1e14)
        a_id, g_id = swapped_finite_gain_params(alpha, beta, gamma, np.inf)
        shift = gamma ** 2 / (2.0 * beta)
        assert (a_id, g_id) == (alpha - shift, shift)
        assert a_large == pytest.approx(a_id, rel=1e-6)
        assert g_large == pytest.approx(g_id, rel=1e-6)

    def test_classical_limit_distances(self):
        assert resource("tmst-asym-fg", inv_gain=0.008).classical_limit_distance() \
            == pytest.approx(434.0, abs=1.0)
        assert resource("tmst-sym-fg", inv_gain=0.008).classical_limit_distance() \
            == pytest.approx(429.0, abs=1.0)
        assert resource("swap-fg", inv_gain=0.008).classical_limit_distance() \
            == pytest.approx(416.0, abs=1.0)

    @pytest.mark.parametrize("kind", ["tmst-asym-fg", "tmst-sym-fg", "swap-fg"])
    def test_huge_thermal_occupation_matches_exact_rationals(self, kind):
        """At n_th = 1e160 and L = 10 m, alpha beta overflows unscaled; the
        fidelity is the same formulas evaluated on fractions.Fraction at the
        same float inputs, to 1e-12."""
        res = resource(kind, n_th=1e160, inv_gain=0.008)
        g = 1.0 / res.inv_gain
        rg, inv_g = Fraction(1.0 / math.sqrt(g)), 1 / Fraction(g)
        link = (res.n_th, res.eta_ant, res.r, res.n)
        if kind == "swap-fg":
            beta, alpha, gamma = map(Fraction, channel.tmst_params(res.mu, 5.0, *link,
                                                                   "asym"))
            den = 2 * (beta + rg + rg * beta * beta + beta * inv_g)
            alpha, gamma = (alpha - gamma ** 2 * (1 + 2 * rg * beta + inv_g) / den,
                            gamma ** 2 * (1 - inv_g) / den)
            beta = alpha
        else:
            alpha, beta, gamma = map(Fraction, channel.tmst_params(
                res.mu, 10.0, *link, res.geometry))
        half_num = 2 + rg * (1 + alpha)
        den = (4 * (1 + (alpha + beta - 2 * gamma) / 2) + rg * alpha * (5 + beta)
               + rg * beta - rg * (gamma - 1) * (gamma + 5) + 2 * inv_g * (1 + alpha))
        expected = float(2 * half_num / den)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = res.fidelity(np.array([0.0, 10.0]))[1]
            assert res.fidelity(10.0) == row
        assert row == pytest.approx(expected, rel=1e-12, abs=0.0)


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


CLOSED_FORM_KINDS = ("tmst-asym", "tmst-sym", "swap", "tmst-asym-fg",
                     "tmst-sym-fg", "swap-fg")


def link_draws(count, seed):
    """Seeded link parameters scattered around table1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield dict(r=rng.uniform(0.8, 1.25), n=rng.uniform(0.0, 0.02),
                   mu=TABLE1["mu"] * rng.uniform(0.5, 2.0),
                   n_th=TABLE1["n_th"] * rng.uniform(0.5, 2.0),
                   eta_ant=rng.choice([0.0, rng.uniform(0.0, 1e-4)]),
                   inv_gain=TABLE1["inv_gain"] * rng.uniform(0.5, 2.0))


class TestClassicalLimitRoots:
    @pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
    def test_closed_form_matches_numeric_root(self, kind):
        from scipy.optimize import brentq

        checked = 0
        for p in link_draws(24, seed=5):
            res = resource(kind, **p)
            if res.fidelity(0.0) <= 0.5:
                continue
            length = res.classical_limit_distance()
            exact = brentq(lambda ll: res.fidelity(ll) - 0.5, 0.0, 5000.0,
                           xtol=1e-10)
            assert length == pytest.approx(exact, abs=1e-6)
            assert abs(res.fidelity(length) - 0.5) <= 1e-12
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("n_th", [1e160, 1e290, 1e300, 1e307])
    @pytest.mark.parametrize("kind", ["tmst-asym", "tmst-asym-fg", "tmst-sym-fg",
                                      "swap", "swap-fg"])
    def test_huge_thermal_occupation_gives_the_root(self, kind, n_th):
        """At n_th = 1e160, c1^2 of the condition overflows unscaled, and the
        tmst-sym-fg and swap-fg c2 are products of two link entries near
        2e160; from 1e290 a power-of-two scaling of the whole condition
        would flush its constant term, and at 1e307 swap's m b1 overflows.
        Every kind must give its root all the same. The root lies near
        5e5 / n_th m, where only an expm1-built reflectivity keeps its
        digits: the reference root of F - 1/2 is taken on triples restated
        with expm1, and a root of the library's own fidelity must agree
        with it."""
        from scipy.optimize import brentq

        res = resource(kind, n_th=n_th, inv_gain=0.008)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length = res.classical_limit_distance()
        assert type(length) is float and 0.0 < length < 1e10 / n_th
        scale = 1.0 + 2.0 * res.n
        a, c = scale * math.cosh(2.0 * res.r), scale * math.sinh(2.0 * res.r)
        gain = 1.0 / res.inv_gain if kind.endswith("-fg") else math.inf

        def excess(ll):  # eta_ant = 0
            if kind.startswith("swap"):  # two asymmetric links of length L/2
                x = res.mu * ll / 2.0
                lossy = a + (1.0 + 2.0 * res.n_th - a) * -math.expm1(-x)
                a_t, g_t = swapped_finite_gain_params(a, lossy, c * math.exp(-x / 2.0),
                                                      gain)
                return fidelity_finite_gain(a_t, a_t, g_t, gain) - 0.5
            x = res.mu * (ll / 2.0 if res.geometry == "sym" else ll)
            alpha = a + (1.0 + 2.0 * res.n_th - a) * -math.expm1(-x)
            if res.geometry == "sym":
                return fidelity_finite_gain(alpha, alpha, c * math.exp(-x), gain) - 0.5
            return fidelity_finite_gain(alpha, a, c * math.exp(-x / 2.0), gain) - 0.5
        # brentq stops at xtol + 4 eps |root|: the relative term decides
        high, tiny = 1e20 / n_th, math.ulp(0.0)
        assert length == pytest.approx(brentq(excess, 0.0, high, xtol=tiny),
                                       rel=1e-9, abs=0.0)
        assert length == pytest.approx(
            brentq(lambda ll: res.fidelity(ll) - 0.5, 0.0, high, xtol=tiny),
            rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_no_entanglement_at_the_source_gives_zero(self, kind):
        assert resource(kind, r=0.05, n=0.5).classical_limit_distance() == 0.0

    @pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
    def test_antenna_near_one(self, kind):
        assert resource(kind, eta_ant=1.0 - 1e-9).classical_limit_distance() == 0.0
        # a lossy antenna shortens the limit by its own share of the budget
        ideal = resource(kind).classical_limit_distance()
        lossy_ant = resource(kind, eta_ant=1e-4).classical_limit_distance()
        assert 0.0 < lossy_ant < ideal

    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_root_beyond_max_distance_raises(self, kind):
        with pytest.raises(ValueError, match="5000 m"):
            resource(kind, mu=1e-8).classical_limit_distance()

    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_zero_attenuation_raises_without_warning(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mu = 0"):
                resource(kind, mu=0.0).classical_limit_distance()


NUMERIC_ROOT_KINDS = ("2ps-prob-asym", "2ps-prob-sym", "2ps-heur-asym", "2ps-heur-sym")
# the kinds whose classical limit marches ROOT_GRID; the symmetric ones at
# g = inf solve the symmetric reach (TestSymReach)
MARCHED_KINDS = ("2ps-prob-asym", "2ps-heur-asym")
SYM_REACH_KINDS = ("tmst-sym", "2ps-prob-sym", "2ps-heur-sym")


class TestNumericRoots:
    @pytest.mark.parametrize("kind", NUMERIC_ROOT_KINDS)
    def test_anderson_bjorck_matches_brentq(self, kind):
        from scipy.optimize import brentq

        checked = 0
        for p in link_draws(12, seed=9):
            res = resource(kind, **p)
            if res.fidelity(0.0) <= 0.5:
                continue
            length = res.classical_limit_distance()
            reference = brentq(lambda ll: res.fidelity(ll) - 0.5, 0.0, 5000.0,
                               xtol=1e-12)
            assert length == pytest.approx(reference, rel=ROOT_RTOL, abs=0.0)
            checked += 1
        assert checked >= 10

    def test_anderson_bjorck_on_a_known_root(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.exp(-x / 300.0) - 0.25

        root = anderson_bjorck(f, 0.0, 5000.0, f(0.0), f(5000.0), ROOT_RTOL)
        assert root == pytest.approx(300.0 * np.log(4.0), rel=ROOT_RTOL, abs=0.0)
        assert len(calls) < 40
        # the bracket is relative: a fidelity-like fall through 1/2 at 1e-200
        # inside a 156.25 m cell
        def g(x):
            return 1.0 / (1.0 + x / 1e-200) - 0.5

        tiny = anderson_bjorck(g, 0.0, 156.25, g(0.0), g(156.25), ROOT_RTOL)
        assert tiny == pytest.approx(1e-200, rel=ROOT_RTOL, abs=0.0)

    def test_non_finite_value_inside_the_bracket_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            anderson_bjorck(lambda x: float("nan"), 0.0, 1.0, 1.0, -1.0, 0.01)


def bench_link_draws(count, seed):
    """Seeded link parameters over the ranges the solve benchmark draws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield dict(mu=TABLE1["mu"] * rng.uniform(0.9, 1.1),
                   n_th=rng.uniform(1000.0, 1300.0), r=rng.uniform(0.8, 1.2),
                   n=rng.uniform(0.005, 0.02), tau=rng.uniform(0.9, 0.97),
                   eta_ant=rng.uniform(0.0, 2e-5))


def watch_march(monkeypatch, seen):
    """Wrap the march's step (TeleportResource._march_step) so that every
    step calls seen(resource, length, excess) before it returns."""
    march_step = TeleportResource._march_step

    def spy(res):
        step = march_step(res)

        def watched(length):
            excess = step(length)
            seen(res, length, excess)
            return excess
        return watched
    monkeypatch.setattr(TeleportResource, "_march_step", spy)


class TestGridBracket:
    @pytest.mark.parametrize("kind", ["2ps-prob-asym", "2ps-prob-sym",
                                      "2ps-heur-asym", "2ps-heur-sym"])
    def test_matches_the_full_bracket_root(self, kind):
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            res = resource(kind, **p)
            length = res.classical_limit_distance()
            assert length == pytest.approx(classical_limit_full_bracket(res),
                                           rel=ROOT_RTOL, abs=0.0)
            assert abs(res.fidelity(length) - 0.5) <= 1e-4

    @pytest.mark.parametrize("kind", MARCHED_KINDS)
    def test_march_equals_the_array_bracket(self, kind):
        # a scalar fidelity is its array row bit for bit, so the march picks
        # the same cell as one array call over the grid, and the same root
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            res = resource(kind, **p)
            assert (float(res.classical_limit_distance()).hex()
                    == float(classical_limit_array_bracket(res)).hex())

    @pytest.mark.parametrize("kind", ["2ps-prob-asym", "2ps-prob-sym",
                                      "2ps-heur-asym", "2ps-heur-sym"])
    def test_march_stays_scalar_and_short(self, kind, monkeypatch):
        lengths = []
        watch_march(monkeypatch, lambda res, length, excess: lengths.append(length))
        resource(kind).classical_limit_distance()
        assert not [length for length in lengths if isinstance(length, np.ndarray)]
        assert len(lengths) <= 10
        # the symmetric kinds solve the symmetric reach and take no step
        assert bool(lengths) == (kind in MARCHED_KINDS)

    @pytest.mark.parametrize("kind", MARCHED_KINDS)
    def test_the_step_is_fidelity(self, kind, monkeypatch):
        # at every distance the march evaluates, its step is fidelity's
        # F - 1/2 bit for bit, and a root reads the cached link once
        steps = []
        watch_march(monkeypatch, lambda *step: steps.append(step))
        reads = channel.tmst_polys.cache_info
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            res = resource(kind, **p)
            before = reads()
            res.classical_limit_distance()
            after = reads()
            assert (after.hits + after.misses) - (before.hits + before.misses) == 1
        assert len(steps) >= 11 * 5
        for res, length, excess in steps:
            assert type(length) is float
            assert excess.hex() == (res.fidelity(length) - 0.5).hex()

    @staticmethod
    def assert_step_is_fidelity(res):
        """At every ROOT_GRID point the step is F - 1/2 bit for bit, or
        raises fidelity's ValueError with the same text."""
        step = res._march_step()
        for length in ROOT_GRID:
            try:
                expected = res.fidelity(length) - 0.5
            except ValueError as error:
                with pytest.raises(ValueError, match="^%s$" % re.escape(str(error))):
                    step(length)
            else:
                assert step(length).hex() == expected.hex()

    @pytest.mark.parametrize("kind", MARCHED_KINDS)
    @pytest.mark.parametrize("link", [dict(tau=1e-300), dict(tau=1e-200),
                                      dict(tau=1e-12), dict(tau=1.0 - 1e-12),
                                      dict(n_th=1e300), dict(n_th=1e-300)], ids=repr)
    def test_the_step_is_fidelity_on_rare_links(self, kind, link):
        # the step writes out fidelity's float operations, so each branch of
        # them is checked: at tau = 1e-300 and 1e-200 _ps2_kernel's E <= 0
        # rescue runs at every grid point of 2ps-prob, and n_th = 1e300 puts
        # the scaled entries near the ends of the float range
        self.assert_step_is_fidelity(resource(kind, **link))

    @pytest.mark.parametrize("kind,polys,message", [
        ("2ps-prob-asym", ((-3.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
         "singular X_A block"),
        ("2ps-prob-asym", ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (4.0, 0.0, 0.0)),
         "singular Y block"),
        ("2ps-heur-asym", ((2.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0)),
         distill._E0_NOT_POSITIVE)])
    def test_the_step_raises_what_fidelity_raises(self, kind, polys, message,
                                                  monkeypatch):
        # unphysical links, one per check of ps2_fidelity: at tau = 1/2, X_A
        # vanishes at alpha = -3 and Y at alpha = beta = 1, gamma = 4
        monkeypatch.setattr(channel, "tmst_polys", lambda *link: polys)
        res = resource(kind, tau=0.5)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            res.fidelity(100.0)
        self.assert_step_is_fidelity(res)

    @pytest.mark.parametrize("kind", MARCHED_KINDS)
    def test_march_is_close_to_a_tight_brentq_root(self, kind):
        from scipy.optimize import brentq

        for p in [{}] + list(bench_link_draws(10, seed=14)):
            res = resource(kind, **p)
            reference = brentq(lambda ll: res.fidelity(ll) - 0.5, 0.0, MAX_DISTANCE,
                               xtol=1e-12)
            assert abs(res.classical_limit_distance() - reference) <= 1e-4

    def test_excess_changes_sign_at_most_once(self):
        # the march evaluates one point per ROOT_GRID cell, so a second
        # crossing inside a cell would go unseen. On 300 wide links, drawn
        # so that most cross within MAX_DISTANCE, the 2PS-asym excess
        # changes sign at most once on a 1 m grid
        rng = np.random.default_rng(23)
        lengths = np.arange(0.0, MAX_DISTANCE + 1.0)
        crossed = 0
        for i in range(300):
            res = resource(("2ps-prob-asym", "2ps-heur-asym")[i % 2],
                           r=rng.uniform(0.05, 3.0), n=rng.uniform(0.0, 0.05),
                           n_th=10.0 ** rng.uniform(1.0, 4.0),
                           mu=10.0 ** rng.uniform(-6.5, -4.0),
                           tau=rng.uniform(0.01, 0.99), eta_ant=rng.uniform(0.0, 1e-4))
            excess = res.fidelity(lengths) - 0.5
            assert np.isfinite(excess).all()
            changes = np.count_nonzero((excess[1:] > 0.0) != (excess[:-1] > 0.0))
            assert changes <= 1
            crossed += changes
        assert crossed >= 200

    @pytest.mark.parametrize("kind", NUMERIC_ROOT_KINDS)
    def test_no_crossing_raises_without_warning(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^%s$" % re.escape(BEYOND_MAX)):
                resource(kind, mu=1e-8).classical_limit_distance()

    @pytest.mark.parametrize("index,raises", [(2, True), (10, False)])
    def test_non_finite_value_raises_before_the_crossing(self, index, raises,
                                                         monkeypatch):
        # the table1 root (407 m) lies in cell 3, from 312.5 to 468.75 m: a
        # point beyond it is not evaluated
        expected = resource("2ps-prob-asym").classical_limit_distance()
        march_step = TeleportResource._march_step

        def broken(res):
            step = march_step(res)
            return lambda length: (float("nan") if length == ROOT_GRID[index]
                                   else step(length))
        monkeypatch.setattr(TeleportResource, "_march_step", broken)
        if raises:
            with pytest.raises(ValueError, match="non-finite fidelity on the bracketing"):
                resource("2ps-prob-asym").classical_limit_distance()
        else:
            assert resource("2ps-prob-asym").classical_limit_distance() == expected

    def test_returns_the_first_crossing(self):
        class Oscillating(TeleportResource):
            def _march_step(self):
                return lambda length: 0.1 * math.cos(length / 500.0)

        # 1/2 is crossed at 250 pi, 750 pi and 1250 pi m
        length = Oscillating("2ps-prob-asym", 1.0, 0.01, 1e-6,
                             1250.0).classical_limit_distance()
        assert length == pytest.approx(250.0 * np.pi, rel=ROOT_RTOL, abs=0.0)

    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_bad_distance_raises(self, kind):
        res = resource(kind, inv_gain=0.008)
        for length, message in ((float("nan"), "must be finite"),
                                (-1.0, "invalid channel"),
                                (np.array([10.0, np.inf]), "must be finite")):
            with pytest.raises(ValueError, match=message):
                res.fidelity(length)

    def test_channel_checked_at_construction(self):
        with pytest.raises(ValueError, match="must be finite"):
            resource("2ps-prob-asym", mu=float("nan"))
        with pytest.raises(ValueError, match="invalid channel"):
            resource("2ps-prob-asym", eta_ant=1.5)
        with pytest.raises(AttributeError):
            resource("2ps-prob-asym").mu = -1.0


class TestOneLinkPerRoot:
    """The link's coefficients are cached (channel.tmst_polys): a march, and
    every kind of one link, build the source terms once per geometry, where
    they were built again on every fidelity call."""

    @pytest.fixture
    def source_calls(self, monkeypatch):
        channel.tmst_polys.cache_clear()
        calls, source_terms = [], channel.source_terms

        def spy(*args):
            calls.append(args)
            return source_terms(*args)
        monkeypatch.setattr(channel, "source_terms", spy)
        return calls

    def test_a_marched_root_builds_its_link_once(self, source_calls, monkeypatch):
        steps = []
        watch_march(monkeypatch, lambda res, length, excess: steps.append(length))
        resource("2ps-prob-asym").classical_limit_distance()
        assert len(steps) >= 5
        assert source_calls == [(TABLE1["r"], TABLE1["n"], TABLE1["n_th"])]

    def test_every_kind_of_one_link_shares_it(self, source_calls):
        for kind in TeleportResource.KINDS:
            resource(kind, inv_gain=0.008).classical_limit_distance()
        ch = channel.AirChannel(TABLE1["mu"], 0.0, TABLE1["n_th"], TABLE1["eta_ant"])
        for geometry in ("asym", "sym"):
            channel.l_max(ch, TABLE1["r"], TABLE1["n"], geometry)
        # one per geometry, and one per swap root, whose condition reads the
        # source's a and c itself
        assert len(source_calls) == 2 + 2

    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_the_cached_link_is_immutable(self, geometry):
        polys = channel.tmst_polys(1.0, 0.01, 1250.0, 0.0, geometry)
        assert type(polys) is tuple and len(polys) == 3
        assert all(type(p) is tuple and len(p) == 3 for p in polys)
        assert all(type(x) is float for p in polys for x in p)
        assert channel.tmst_polys(1.0, 0.01, 1250.0, 0.0, geometry) is polys


class TestMarchedRootsAtAnyOccupation:
    """The marched limits scale with 1/n_th down to 5e-295 m at n_th = 1e300:
    the bracket is relative, so they keep ROOT_RTOL of the exact root."""

    @pytest.mark.parametrize("n_th", [1250.0] + [10.0 ** k for k in range(4, 13)]
                             + [1e40, 1e160, 1e300])
    @pytest.mark.parametrize("kind", MARCHED_KINDS)
    def test_matches_the_exact_root(self, kind, n_th):
        res = resource(kind, n_th=n_th)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length = res.classical_limit_distance()
        assert type(length) is float and 0.0 < length < 1e10 / n_th
        assert length == pytest.approx(classical_limit_mp(res), rel=ROOT_RTOL, abs=0.0)


class TestTable1LimitsWithoutWarning:
    """At table1, under warnings as errors: every classical limit is a
    Python float, a marched one lies within 1e-6 of F = 1/2, and the
    symmetric kinds at g = inf give the symmetric reach itself."""

    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_classical_limit(self, kind):
        res = resource(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length = res.classical_limit_distance()
            excess = res.fidelity(length) - 0.5
            reach = distance_bound("l_max-sym", {})
        assert type(length) is float
        if kind in MARCHED_KINDS:
            assert abs(excess) <= 1e-6
        if kind in SYM_REACH_KINDS:
            assert length == reach


def mp_root_distance(condition, mu, sigma=1.0):
    """channel.root_distance of the same float coefficients, at 60 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        coeffs = [mp.mpf(float(c)) for c in np.trim_zeros(condition, "b")]
        roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        u = min(sigma * mp.re(x) for x in roots
                if abs(mp.im(x)) < mp.mpf(10) ** -40 and 0 <= sigma * mp.re(x) < 1)
        return float(-2 / mp.mpf(mu) * mp.log1p(-u))


class TestSixtyDigitRoots:
    """Every closed-form distance bound is the 60-digit root of its own float
    coefficients to 1e-12: no digits are lost in solving."""

    @pytest.mark.parametrize("bound", CLOSED_FORM_KINDS + ("l_max-asym", "l_max-sym"))
    def test_root_of_the_same_coefficients(self, bound, monkeypatch):
        conditions = []
        solve = channel.root_distance

        def spy(condition, mu, sigma=1.0):
            conditions.append((condition, mu, sigma))
            return solve(condition, mu, sigma)
        monkeypatch.setattr(channel, "root_distance", spy)
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            if bound.startswith("l_max"):
                link = {**TABLE1, **p}
                ch = channel.AirChannel(link["mu"], 0.0, link["n_th"], link["eta_ant"])
                length = channel.l_max(ch, link["r"], link["n"], bound[6:])
            else:
                length = resource(bound, **p).classical_limit_distance()
            assert length == pytest.approx(mp_root_distance(*conditions[-1]),
                                           rel=1e-12, abs=0.0)


def distance_bound(bound, p):
    """A classical-limit distance (a kind of TeleportResource) or an l_max
    reach ("l_max-asym", "l_max-sym") at table1 overridden by p."""
    if bound.startswith("l_max"):
        link = {**TABLE1, **p}
        ch = channel.AirChannel(link["mu"], 0.0, link["n_th"], link["eta_ant"])
        return channel.l_max(ch, link["r"], link["n"], bound[6:])
    return resource(bound, **p).classical_limit_distance()


def bits(coeffs):
    """float.hex of each coefficient, zero-padded to 5; + 0.0 folds -0.0 into
    0.0, since the sign of a zero coefficient moves no root."""
    return [float(c + 0.0).hex() for c in list(coeffs) + [0.0] * (5 - len(coeffs))]


class TestCoefficientArrayRoute:
    """The written-out conditions on Python floats against the numpy
    coefficient-array route they replaced (tests/oracles/routes.py)."""

    @staticmethod
    def condition_and_root(bound, p, monkeypatch):
        """The condition root_distance receives for a bound, and the bound."""
        conditions = []
        solve = channel.root_distance

        def spy(condition, mu, sigma=1.0):
            assert sigma == 1.0  # the array route is in u: no entry needs scaling
            conditions.append(condition)
            return solve(condition, mu)
        with monkeypatch.context() as patch:
            patch.setattr(channel, "root_distance", spy)
            length = distance_bound(bound, p)
        return conditions[-1], length

    @staticmethod
    def array_route(bound, p):
        """The array condition of a bound and its mu."""
        link = {**TABLE1, **p}
        if bound.startswith("l_max"):
            ch = channel.AirChannel(link["mu"], 0.0, link["n_th"], link["eta_ant"])
            return l_max_condition_array(ch, link["r"], link["n"], bound[6:]), link["mu"]
        return half_fidelity_poly_array(resource(bound, **p)), link["mu"]

    @pytest.mark.parametrize("bound", ["tmst-asym", "tmst-asym-fg", "tmst-sym-fg",
                                       "l_max-asym", "l_max-sym"])
    def test_quadratic_conditions_and_roots_are_bit_identical(self, bound,
                                                               monkeypatch):
        """Up to sign: each condition is positive where its bound is not
        yet reached, and negating a coefficient is exact. tmst-sym solves
        the symmetric reach (TestSymReach)."""
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            condition, length = self.condition_and_root(bound, p, monkeypatch)
            array, mu = self.array_route(bound, p)
            if bound.startswith("l_max"):
                array = -array
            assert bits(condition) == bits(array)
            assert length.hex() == channel.root_distance(array[:3], mu).hex()

    @pytest.mark.parametrize("kind", ["swap", "swap-fg"])
    def test_swap_conditions_and_roots_agree(self, kind, monkeypatch):
        """The array route's quartic is 4 (B + k)(1 + k B) times the swap
        condition (TestSwapConditionIdentity) to rounding, and the swap
        limits are the quartic's first root in [0, 1)."""
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            condition, length = self.condition_and_root(kind, p, monkeypatch)
            array, mu = self.array_route(kind, p)
            res = resource(kind, **p)
            k = np.sqrt(res.inv_gain) if kind == "swap-fg" else 0.0
            beta = tmst_polys_array(res.r, res.n, res.n_th, res.eta_ant, "sym")[0]
            positive = poly_mul(beta + k * poly(1.0), k * beta + poly(1.0))
            np.testing.assert_allclose(4.0 * poly_mul(positive, poly(*condition)),
                                       array, rtol=1e-13, atol=0.0)
            assert length == pytest.approx(mp_root_distance(array, mu),
                                           rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bound", ["tmst-asym", "tmst-sym", "swap",
                                       "tmst-asym-fg", "tmst-sym-fg", "swap-fg",
                                       "l_max-asym", "l_max-sym"])
    def test_quadratic_bounds_form_no_array(self, bound, monkeypatch):
        """Every closed-form bound has a condition of degree <= 2 and is a
        Python float built without a coefficient array or an eigen-solve,
        and without a warning."""
        def refuse(*args, **kwargs):
            raise AssertionError("a coefficient array was formed")
        monkeypatch.setattr(channel.np, "zeros", refuse)
        monkeypatch.setattr(channel.np, "convolve", refuse)
        monkeypatch.setattr(channel.np.linalg, "eigvals", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert type(distance_bound(bound, {})) is float


def heuristic_correction_restated(alpha, beta, gamma):
    """h of distill.heuristic_factor (1 + h) in its quartic N form, without
    the check, written again for sympy."""
    e0 = (alpha - 1) * (beta - 1) + gamma ** 2
    s, d2 = alpha + beta - 2 * gamma, (alpha - beta) ** 2
    num = ((s - 2) ** 3 * (s + 6) - d2 ** 2) / 8 + d2 * (2 - s + gamma * (s + 2))
    return -num / ((s + 2) ** 2 * e0)


def ps2_standard_form_restated(alpha, beta, gamma, tau):
    """distill.ps2_standard_form's triple, unscaled and without its checks,
    and its den, written again for sympy."""
    cross = (1 - alpha) * (1 - beta) - gamma ** 2
    den = ((1 + alpha) * (1 + beta) - gamma ** 2
           + 2 * (1 - alpha * beta + gamma ** 2) * tau + cross * tau ** 2)
    alpha_t = 1 - 2 * tau * ((1 - alpha) * (1 + beta) + gamma ** 2 + cross * tau) / den
    beta_t = 1 - 2 * tau * ((1 + alpha) * (1 - beta) + gamma ** 2 + cross * tau) / den
    return alpha_t, beta_t, 4 * tau * gamma / den, den


class TestSymReachIdentity:
    """At beta = alpha and g = inf, tmst-sym, 2ps-heur-sym and 2ps-prob-sym
    beat F = 1/2 exactly where alpha - gamma < 1, so their classical limit is
    the symmetric reach (channel.sym_reach). Every symmetric lossy_tmst has
    alpha - gamma = nu_minus > 0 and gamma > 0 (r > 0), and 0 < tau < 1."""

    def test_restatements_are_the_library_functions(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            gamma = rng.uniform(0.5, 4.0)
            alpha = np.sqrt(1.0 + gamma ** 2) + rng.uniform(0.0, 1.0)
            beta = np.sqrt(1.0 + gamma ** 2) + rng.uniform(0.0, 1.0)
            tau = rng.uniform(0.05, 0.99)
            assert 1.0 + heuristic_correction_restated(alpha, beta, gamma) == (
                pytest.approx(distill.heuristic_factor(alpha, beta, gamma), rel=1e-13))
            np.testing.assert_allclose(
                ps2_standard_form_restated(alpha, beta, gamma, tau)[:3],
                distill.ps2_standard_form(alpha, beta, gamma, tau)[:3], rtol=1e-13)

    def test_heuristic_fidelity_factorization(self):
        sp = pytest.importorskip("sympy")
        a, g = sp.symbols("alpha gamma", positive=True)
        s, e0 = 2 * a - 2 * g, (a - 1) ** 2 + g ** 2  # S and E_0 at beta = alpha
        half = sp.Rational(1, 2)
        # tmst-sym: F = 1/(1 + S/2), the finite-gain fidelity at g = inf
        assert sp.simplify(1 / (1 + s / 2) - half + (s - 2) / (2 * (s + 2))) == 0
        # 2ps-heur-sym: F = (1 + h)/(1 + S/2)
        fidelity = (1 + heuristic_correction_restated(a, a, g)) / (1 + s / 2)
        factored = (-(s - 2) * (2 * e0 * (s + 2) ** 2 + (s - 2) ** 2 * (s + 6))
                    / (4 * e0 * (s + 2) ** 3))
        assert sp.simplify(fidelity - half - factored) == 0
        # S - 2 = 2 (alpha - gamma - 1); with E_0 = e > 0 and S + 2 = w > 0
        # the second factor and the denominator are positive
        e, w, x = sp.symbols("e w x", positive=True)
        assert (2 * e * w ** 2 + (w - 4) ** 2 * (w + 4)).is_positive
        assert (4 * e * w ** 3).is_positive
        # and on the domain E_0 > 0 and S + 2 > 0, with alpha - gamma = x > 0
        assert e0.is_positive
        assert (s + 2).subs(a, g + x).is_positive

    def test_subtraction_factorization(self):
        sp = pytest.importorskip("sympy")
        a, g, tau, q, x = sp.symbols("alpha gamma tau q x", positive=True)
        alpha_t, beta_t, gamma_t, den = ps2_standard_form_restated(a, a, g, tau)
        assert sp.simplify(alpha_t - beta_t) == 0
        far = (1 + tau) + (1 - tau) * (a + g)
        near = (1 + tau) + (1 - tau) * (a - g)
        assert sp.expand(sp.cancel((alpha_t - gamma_t - 1) * den)
                         - 2 * tau * (a - g - 1) * far) == 0
        # den = near * far, and the subtracted triple keeps S + 2 > 0 (and
        # E_0 > 0, as gamma_t = 4 tau gamma / den > 0): the heuristic
        # factorization holds there too
        assert sp.expand(den - near * far) == 0
        assert sp.simplify((alpha_t - gamma_t + 1) * near - 2 * (1 + a - g)) == 0
        # both factors are positive: tau = 1/(1 + q) in (0, 1), alpha - gamma = x
        for factor in (near, far):
            assert sp.together(factor.subs({tau: 1 / (1 + q), a: g + x})).is_positive


def swapped_restated(alpha, beta, gamma, k):
    """teleport.swapped_finite_gain_params at g = 1/k^2 without its check
    and its scaling, written again for sympy; also returns its den."""
    den = 2 * (beta + k + k * beta ** 2 + k ** 2 * beta)
    return (alpha - gamma ** 2 * (1 + 2 * k * beta + k ** 2) / den,
            gamma ** 2 * (1 - k ** 2) / den, den)


def half_fidelity_restated(alpha, beta, gamma, k):
    """teleport.half_fidelity_condition on constants, 2 num - den of
    fidelity_finite_gain at g = 1/k^2, written again for sympy."""
    return ((4 - k - 2 * k ** 2) - (2 + k + 2 * k ** 2) * alpha - (2 + k) * beta
            + 4 * (1 + k) * gamma + k * (gamma ** 2 - alpha * beta))


def swap_condition_restated(a, b, g2, k):
    """teleport.swap_condition at one point: retained block a, lossy block
    b, gamma^2 = g2, written again for sympy."""
    m = a ** 2 * k + 2 * a * k ** 2 + 2 * a * k + 4 * a + 2 * k ** 2 + k - 4
    n = a * k ** 3 + a * k + k ** 4 - k ** 3 + k ** 2 + 3 * k + 4
    return (n * g2 - m * (b + k) * (1 + k * b)
            + 2 * k * (a * k + k ** 2 + k + 2) * b * g2 - k ** 2 * g2 ** 2)


class TestSwapConditionIdentity:
    """The swapped resource beats F = 1/2 exactly where the quadratic
    teleport.swap_condition is positive: 2 num - den at the swapped triple
    is that quadratic over (B + k)(1 + k B), which is positive for B >= 1
    and k >= 0, and the swap links' B = beta >= 1."""

    def test_restatements_are_the_library_functions(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            gamma = rng.uniform(0.5, 4.0)
            alpha = np.sqrt(1.0 + gamma ** 2) + rng.uniform(0.0, 1.0)
            beta = np.sqrt(1.0 + gamma ** 2) + rng.uniform(0.0, 1.0)
            k = rng.uniform(0.0, 0.5)
            np.testing.assert_allclose(
                swapped_restated(alpha, beta, gamma, k)[:2],
                swapped_finite_gain_params(alpha, beta, gamma, k ** -2), rtol=1e-13)
            assert half_fidelity_restated(alpha, beta, gamma, k) == pytest.approx(
                half_fidelity_condition((alpha, 0.0, 0.0), (beta, 0.0, 0.0),
                                        (gamma, 0.0, 0.0), k)[0], rel=1e-13)
            b, g2 = rng.uniform(1.0, 3e3), rng.uniform(0.0, 40.0)
            constant = swap_condition(alpha, (b, 0.0, 0.0), (g2, 0.0, 0.0), k)
            assert constant[1:] == (0.0, 0.0)
            assert constant[0] == pytest.approx(swap_condition_restated(alpha, b, g2, k),
                                          rel=1e-12)

    def test_factorization(self):
        sp = pytest.importorskip("sympy")
        a, b, k = sp.symbols("a B k")
        g2 = sp.symbols("g2", positive=True)
        alpha_t, gamma_t, den = swapped_restated(a, b, sp.sqrt(g2), k)
        condition = half_fidelity_restated(alpha_t, alpha_t, gamma_t, k)
        positive = (b + k) * (1 + k * b)
        assert sp.expand(den - 2 * positive) == 0
        # den^2 times the condition, a quartic in B, divides by the positive
        # factor and leaves 4 times the quadratic
        quartic = sp.expand(sp.cancel(condition * den ** 2))
        quotient, remainder = sp.div(quartic, sp.expand(positive), b)
        assert remainder == 0
        assert sp.expand(quotient - 4 * swap_condition_restated(a, b, g2, k)) == 0
        # at g = inf it is linear in B and g2
        assert sp.expand(swap_condition_restated(a, b, g2, 0)
                         - 4 * (g2 - (a - 1) * b)) == 0
        # (B + k)(1 + k B) > 0 for B = 1 + x, x >= 0 and k >= 0
        x, kk = sp.symbols("x kk", nonnegative=True)
        assert sp.expand(positive.subs({b: 1 + x, k: kk})).is_positive

    def test_written_out_coefficients_equal_the_restatement(self):
        sp = pytest.importorskip("sympy")
        u = sp.symbols("u")
        for p in [{}] + list(bench_link_draws(10, seed=14)):
            for kind in ("swap", "swap-fg"):
                res = resource(kind, inv_gain=TABLE1["inv_gain"], **p)
                k = math.sqrt(res.inv_gain) if kind == "swap-fg" else 0.0
                scale = 1.0 + 2.0 * res.n
                a, c = scale * math.cosh(2.0 * res.r), scale * math.sinh(2.0 * res.r)
                (b0, b1, _), _, (h0, h1, _) = channel.tmst_polys(
                    res.r, res.n, res.n_th, res.eta_ant, "sym")
                exact = [sp.Rational(x) for x in (a, c, k, b0, b1, h0, h1)]
                a, c, k, b0, b1, h0, h1 = exact
                expected = sp.Poly(swap_condition_restated(
                    a, b0 + b1 * u, c * (h0 + h1 * u), k), u).all_coeffs()[::-1]
                condition, sigma = res._half_fidelity_poly()
                assert sigma == 1.0 and len(condition) == 3
                for got, want in zip(condition, expected + [0] * 3):
                    assert got == pytest.approx(float(want), rel=1e-12, abs=1e-300)


class TestSymReach:
    """The classical limits of the symmetric kinds at g = inf are
    channel.l_max's symmetric reach, with no fidelity evaluated."""

    LINKS = ([{}, dict(r=0.05, n=0.5)] + list(bench_link_draws(10, seed=14))
             + list(link_draws(24, seed=5)))

    @pytest.mark.parametrize("kind", SYM_REACH_KINDS)
    def test_equals_l_max_sym_bit_for_bit(self, kind):
        for p in self.LINKS:
            reach = distance_bound("l_max-sym", p)
            assert reach <= MAX_DISTANCE
            assert resource(kind, **p).classical_limit_distance().hex() == reach.hex()
        # a reach beyond MAX_DISTANCE is no classical limit
        assert distance_bound("l_max-sym", dict(mu=1e-7)) > MAX_DISTANCE
        with pytest.raises(ValueError, match=re.escape(BEYOND_MAX)):
            resource(kind, mu=1e-7).classical_limit_distance()

    @pytest.mark.parametrize("kind", SYM_REACH_KINDS)
    def test_within_root_rtol_of_the_array_bracket(self, kind):
        for p in self.LINKS:
            res = resource(kind, **p)
            assert res.classical_limit_distance() == pytest.approx(
                classical_limit_array_bracket(res), rel=ROOT_RTOL, abs=0.0)

    @pytest.mark.parametrize("kind", SYM_REACH_KINDS)
    def test_evaluates_no_fidelity(self, kind, monkeypatch):
        def refuse(res, *length):
            raise AssertionError("a fidelity was evaluated")
        monkeypatch.setattr(TeleportResource, "fidelity", refuse)
        monkeypatch.setattr(TeleportResource, "_march_step", refuse)
        assert resource(kind).classical_limit_distance() > 0.0
        assert resource(kind, r=0.05, n=0.5).classical_limit_distance() == 0.0
        with pytest.raises(ValueError, match=re.escape(BEYOND_MAX)):
            resource(kind, mu=1e-8).classical_limit_distance()

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, float("nan")])
    def test_subtraction_needs_tau_in_the_open_unit_interval(self, tau):
        for kind in ("2ps-prob-asym", "2ps-prob-sym"):
            with pytest.raises(ValueError, match="transmissivity"):
                resource(kind, tau=tau)


def source_draws(count, seed):
    """Seeded links around F = 1/2 at the source: weak squeezing and warm
    sources give F(0) <= 1/2. The first link, vacuum through a lossless
    antenna, has F(0) = 1/2 exactly for the ideal Gaussian kinds."""
    rng = np.random.default_rng(seed)
    yield dict(r=0.0, n=0.0, eta_ant=0.0)
    for _ in range(count):
        yield dict(r=rng.uniform(0.0, 1.25), n=rng.uniform(0.0, 0.6),
                   n_th=TABLE1["n_th"] * rng.uniform(0.5, 2.0),
                   eta_ant=rng.choice([0.0, rng.uniform(0.0, 0.5)]),
                   tau=rng.uniform(0.05, 0.99),
                   inv_gain=TABLE1["inv_gain"] * rng.uniform(0.5, 2.0))


class TestSourceSign:
    """A closed-form kind decides 0 at the source from the sign of its
    condition's constant term, not from the fidelity there."""

    @pytest.mark.parametrize("kind", CLOSED_FORM_KINDS + ("2ps-prob-sym", "2ps-heur-sym"))
    def test_zero_exactly_where_the_source_fidelity_is_at_most_half(self, kind):
        # at mu = 0 a limit is 0 at the source or raises: the source decides
        seen = []
        for p in source_draws(200, seed=41):
            res = resource(kind, **{**p, "mu": 0.0})
            try:
                at_most_half = res.fidelity(0.0) <= 0.5
            except ValueError:  # E_0 = 0: nothing to subtract from the vacuum
                continue
            try:
                zero = res.classical_limit_distance() == 0.0
            except ValueError as exc:
                assert "mu = 0" in str(exc)
                zero = False
            assert zero == at_most_half, p
            seen.append(at_most_half)
        assert seen.count(True) >= 40 and seen.count(False) >= 40


class TestArrayFidelity:
    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_array_rows_equal_scalar_calls(self, kind):
        res = resource(kind, inv_gain=0.008)
        grid = np.linspace(0.0, 600.0, 13)
        values = res.fidelity(grid)
        assert values.shape == grid.shape
        # bit for bit, on Python floats
        assert ([float(v).hex() for v in values]
                == [float(res.fidelity(length)).hex() for length in grid.tolist()])

    @pytest.mark.parametrize("kind", TeleportResource.KINDS)
    def test_scalar_distance_forms_no_array(self, kind):
        assert not isinstance(resource(kind, inv_gain=0.008).fidelity(300.0),
                              np.ndarray)

    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_scalar_distance_gives_float_params(self, geometry):
        triple = channel.tmst_params(TABLE1["mu"], 300.0, TABLE1["n_th"],
                                     TABLE1["eta_ant"], TABLE1["r"], TABLE1["n"],
                                     geometry)
        assert [type(x) for x in triple] == [float] * 3

    @pytest.mark.parametrize("geometry", ["asym", "sym"])
    def test_scalar_params_equal_array_rows_over_the_march_range(self, geometry):
        # a float distance and an array row must round u = -expm1(-mu L / 2)
        # alike: both take math.expm1 through core.math_map, where numpy's
        # AVX-512 loop differs from it on 5 of these 20,000 distances at table1
        lengths = np.linspace(0.0, MAX_DISTANCE, 20000)
        link = (TABLE1["n_th"], TABLE1["eta_ant"], TABLE1["r"], TABLE1["n"], geometry)
        rows = zip(*channel.tmst_params(TABLE1["mu"], lengths, *link))
        scalars = (channel.tmst_params(TABLE1["mu"], length, *link)
                   for length in lengths.tolist())
        assert ([tuple(float(x).hex() for x in row) for row in rows]
                == [tuple(x.hex() for x in triple) for triple in scalars])

    def test_any_bad_row_raises(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            swapped_finite_gain_params(np.array([3.0, 3.0]), np.array([2.0, 0.0]),
                                       np.array([1.0, 1.0]), np.inf)
        with pytest.raises(ValueError, match="invalid channel"):
            resource("tmst-asym").fidelity(np.array([10.0, -1.0]))

    @pytest.mark.parametrize("kind", ["tmst-asym", "tmst-sym", "swap"])
    def test_ideal_kinds_are_finite_gain_at_infinity(self, kind):
        """tmst-* is 1/(1 + (alpha + beta - 2 gamma)/2) bit for bit; swap is
        the paper's 1/(1 + alpha - gamma^2/beta) to rounding."""
        grid = np.linspace(0.0, 600.0, 121)
        for p in [{}] + list(link_draws(8, seed=23)):
            res = resource(kind, **p)
            link = (res.n_th, res.eta_ant, res.r, res.n)
            if kind == "swap":
                beta, alpha, gamma = channel.tmst_params(res.mu, grid / 2.0, *link,
                                                         "asym")
                np.testing.assert_allclose(res.fidelity(grid),
                                           1.0 / (1.0 + alpha - gamma ** 2 / beta),
                                           rtol=1e-15, atol=0.0)
            else:
                alpha, beta, gamma = channel.tmst_params(res.mu, grid, *link,
                                                         res.geometry)
                assert np.array_equal(res.fidelity(grid),
                                      1.0 / (1.0 + 0.5 * (alpha + beta - 2.0 * gamma)))
