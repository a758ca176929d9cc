import math
import warnings

import numpy as np
import pytest
from scipy.special import hyp2f1 as scipy_hyp2f1

from cvmw import channel, core, teleport
from cvmw.distill import (heuristic_factor, heuristic_negativity, hyp2f1_k,
                          ps2_gaussian, ps2_heuristic, ps2_standard_form, PsTmsv,
                          tmsv_negativity)
from cvmw.entanglement import BipartiteCM, cm_validity
from tests.oracles import fock_ops
from tests.oracles.general import char_fn_heuristic, swap
from tests.oracles.routes import ps2_standard_form_mp, success_probability_series


def char_fn_2ps(cm, tau, alpha_pt, beta_pt):
    """Characteristic function of the probabilistically 2PS state: the
    heuristic one at the Sigma-tilde of ps2_gaussian."""
    out = ps2_gaussian(cm, tau)
    return char_fn_heuristic(out.cm, alpha_pt, beta_pt, out.heuristic)


class TestHyp2f1:
    def test_at_zero(self):
        for k in (0, 1, 2):
            assert hyp2f1_k(k, 0.0) == 1.0

    def test_geometric_series(self):
        for z in (0.1, 0.5, 0.9):
            assert hyp2f1_k(0, z) == pytest.approx(1.0 / (1.0 - z), rel=1e-14)

    def test_against_brute_force_summation(self):
        # direct 10^4-term sum of 2F1(2, 2; 1; z) at z = 0.9
        z, a, b, c = 0.9, 2.0, 2.0, 1.0
        total, term = 1.0, 1.0
        for n in range(10000):
            term *= (a + n) * (b + n) / (c + n) * z / (n + 1.0)
            total += term
        assert hyp2f1_k(1, z) == pytest.approx(total, rel=1e-12)

    def test_against_scipy(self):
        # up to z = tanh^2(4.5), where the old series still converged
        for k in (0, 1, 2):
            for z in np.tanh(np.linspace(0.0, 4.5, 19)) ** 2:
                assert hyp2f1_k(k, z) == pytest.approx(
                    float(scipy_hyp2f1(k + 1, k + 1, 1.0, z)), rel=1e-12)


class TestPsTmsv:
    def test_tmsv_negativity_recovered(self):
        for r in (0.3, 1.0):
            lam = np.tanh(r)
            assert heuristic_negativity(lam, 0) == pytest.approx(
                lam / (1.0 - lam))
            assert tmsv_negativity(lam) == pytest.approx(
                (np.exp(2.0 * r) - 1.0) / 2.0)

    def test_probability_summation_identity(self):
        for lam in (0.2, 0.6, 0.9):
            for tau in (0.5, 0.95):
                for k in (1, 2):
                    ps = PsTmsv(lam, tau, k)
                    assert ps.success_probability() == pytest.approx(
                        success_probability_series(ps), abs=1e-12)

    def test_against_fock_brute_force(self):
        # beam splitters + ancillas + projection on |1,1>, truncated space
        lam, tau = np.tanh(0.5), 0.95
        ps = PsTmsv(lam, tau, 1)
        ket, prob = fock_ops.ps_project(fock_ops.tmsv_ket(0.5, 60), tau, 1)
        assert prob == pytest.approx(ps.success_probability(), abs=1e-12)
        assert fock_ops.ket_negativity(ket) == pytest.approx(ps.negativity(),
                                                         abs=1e-6)

    def test_probabilities_ordered_and_bounded(self):
        tau = 0.95
        for r in np.linspace(0.05, 1.5, 20):
            lam = np.tanh(r)
            p2 = PsTmsv(lam, tau, 1).success_probability()
            p4 = PsTmsv(lam, tau, 2).success_probability()
            assert 0.0 < p4 < p2 < 1.0

    def test_negativity_crossing_structure(self):
        # subtraction beats the bare state below a squeezing threshold and
        # loses above it
        tau = 0.95
        gains = []
        for r in np.linspace(0.1, 2.0, 40):
            lam = np.tanh(r)
            gains.append(PsTmsv(lam, tau, 1).negativity()
                         - tmsv_negativity(lam))
        assert gains[0] > 0.0 and gains[-1] < 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PsTmsv(1.0, 0.95, 1)
        with pytest.raises(ValueError):
            PsTmsv(0.5, 0.95, 3)


class TestPs2Gaussian:
    def test_matches_direct_standard_forms(self):
        for (a, b, g) in ((np.cosh(1.2), np.cosh(1.2), np.sinh(1.2)),
                          (4.2, 3.9, 3.5), (3.84, 4.4, 3.55)):
            cm = BipartiteCM.standard_form(a, b, g, check=False)
            out = ps2_gaussian(cm, 0.95)
            at, bt, gt, prob = ps2_standard_form(a, b, g, 0.95)
            assert out.cm.sigma_a[0, 0] == pytest.approx(at, rel=1e-12)
            assert out.cm.sigma_b[0, 0] == pytest.approx(bt, rel=1e-12)
            assert out.cm.eps[0, 0] == pytest.approx(gt, rel=1e-12)
            assert out.probability == pytest.approx(prob, rel=1e-10)

    def test_tmsv_maps_to_rescaled_tmsv(self):
        r, tau = 0.5, 0.95
        lam_tau = np.tanh(r) * tau
        out = ps2_gaussian(BipartiteCM.from_state(core.tmsv(r)), tau)
        r_eff = np.arctanh(lam_tau)
        np.testing.assert_allclose(out.cm.matrix, core.tmsv(r_eff).sigma, atol=1e-12)
        assert out.probability == pytest.approx(
            PsTmsv(np.tanh(r), tau, 1).success_probability(), rel=1e-10)

    def test_symmetry_preserved(self):
        cm = BipartiteCM.standard_form(3.8, 3.8, 3.2)
        out = ps2_gaussian(cm, 0.9)
        np.testing.assert_allclose(out.cm.sigma_a, out.cm.sigma_b, atol=1e-12)

    def test_assembled_blocks_symmetric(self):
        cm = BipartiteCM.standard_form(4.0, 3.5, 3.0)
        out = ps2_gaussian(cm, 0.92)
        mach = out.heuristic
        for m in (out.cm.sigma_a, out.cm.sigma_b, out.cm.eps, mach.big_a, mach.big_b,
                  mach.big_c, mach.big_ac, mach.big_bc):
            np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_success_probability_magnitude_and_efficiency_peak(self):
        # lossy source states: P2 in the 1e-3..1e-2 range and the efficiency
        # P * (fidelity gain) peaking near tau = 0.92
        p = channel.TABLE1
        ch = channel.AirChannel(p["mu"], 0.0, p["n_th"], 0.0)
        cm = channel.lossy_tmst(ch, p["r"], p["n"], "sym")
        f_bare = teleport.fidelity_concatenated(cm, 1)
        taus = np.linspace(0.9, 0.995, 40)
        effs = []
        for tau in taus:
            out = ps2_gaussian(cm, tau)
            fbar, _ = teleport.fidelity_heuristic(out.cm, out.heuristic)
            effs.append(out.probability * (fbar - f_bare))
        out95 = ps2_gaussian(cm, 0.95)
        assert 1e-3 < out95.probability < 1e-1
        # the efficiency curve is flat around its top; the peak sits near 0.92
        peak_tau = taus[int(np.argmax(effs))]
        assert peak_tau == pytest.approx(0.92, abs=0.02)
        assert max(effs) > 0.0

    def test_invalid_tau(self):
        cm = BipartiteCM.from_state(core.tmsv(0.3))
        with pytest.raises(ValueError):
            ps2_gaussian(cm, 1.0)


class TestPs2Heuristic:
    def test_normalization_identity(self):
        cm = BipartiteCM.from_state(core.tmst(0.7, 0.1))
        mach = ps2_heuristic(cm)
        assert mach.e0 == pytest.approx(mach.m_a * mach.m_b + mach.m_c)

    def test_vacuum_input_rejected(self):
        with pytest.raises(ValueError):
            ps2_heuristic(BipartiteCM.standard_form(1.0, 1.0, 0.0))

    def test_heuristic_beats_probabilistic_gain(self):
        # the annihilation-operator protocol always distills at least as
        # well as the beam-splitter one on the squeezing sweep
        tau = 0.95
        for r in np.linspace(0.1, 1.5, 15):
            lam = np.tanh(r)
            gain_h = heuristic_negativity(lam, 1) - tmsv_negativity(lam)
            gain_p = PsTmsv(lam, tau, 1).negativity() - tmsv_negativity(lam)
            assert gain_h >= gain_p - 1e-12


def symbolic_heuristic_correction(alpha, beta, gamma):
    """h of ps2_heuristic for the standard-form input (alpha I, beta I,
    gamma sigma_z), restated step by step in sympy."""
    import sympy as sp

    i2, w, sz = sp.eye(2), sp.Matrix([[0, 1], [-1, 0]]), sp.Matrix([[1, 0], [0, -1]])
    sa, sb, e = alpha * i2, beta * i2, gamma * sz
    m_a, m_b = 1 - sa.trace() / 2, 1 - sb.trace() / 2
    m_c = (e.T * e).trace() / 2
    e0 = m_a * m_b + m_c
    big_a = (i2 - 2 * w * sa * w.T + w * sa * sa * w.T) / 4
    big_b = (i2 - 2 * w * sb * w.T + w * sb * sb * w.T) / 4
    big_c = w * e.T * e * w.T / 4
    big_ac = (w * sa * e * w.T - w * e * w.T) / 2
    big_bc = (w * e * sb * w.T - w * e * w.T) / 2
    wmat = i2 + (sz * sa * sz + sb - sz * e - e.T * sz) / 2
    w_inv = wmat.inv()
    e1 = (m_a * (big_b + sz * big_c * sz + sz * big_bc)
          + m_b * (sz * big_a * sz + big_c + sz * big_ac)
          + (2 * big_c + sz * big_ac) * w * (i2 + sz * e - sb) * w.T)
    e2_a = big_c + sz * big_ac + sz * big_a * sz
    e2_b = big_b + sz * big_bc + sz * big_c * sz
    return ((w * w_inv * w.T * e1).trace()
            - 2 / wmat.det() * (w * e2_a * w.T * e2_b).trace()
            + 3 * (w * w_inv * w.T * e2_a).trace() * (w * w_inv * w.T * e2_b).trace()
            ) / e0


class TestHeuristicCorrection:
    """The closed form of 1 + h (distill.heuristic_factor)."""

    def test_sympy_derivation_from_the_ps2_heuristic_matrices(self):
        sp = pytest.importorskip("sympy")
        a, b, g = sp.symbols("alpha beta gamma", positive=True)
        h = symbolic_heuristic_correction(a, b, g)
        s, d = a + b - 2 * g, a - b
        num = ((s - 2) ** 3 * (s + 6) - d ** 4) / 8 + d ** 2 * (2 - s + g * (s + 2))
        closed = -num / ((s + 2) ** 2 * ((a - 1) * (b - 1) + g ** 2))
        assert sp.simplify(h - closed) == 0
        # N is a quartic polynomial
        assert sp.Poly(sp.expand(num), a, b, g).total_degree() == 4
        # the positive form: 1 + h over the same denominator, whose numerator
        # (S + 2)^2 E_0 - N is quartic in K = (alpha - 1)(beta - 1) - gamma^2
        k = (a - 1) * (b - 1) - g ** 2
        e0 = k + 2 * g ** 2
        positive = 2 * (k ** 2 + 2 * (a + b + 2 * g - 2) * k + 8 * e0)
        assert sp.expand((s + 2) ** 2 * e0 - num - positive) == 0
        assert sp.simplify(1 + h - positive / ((s + 2) ** 2 * e0)) == 0
        # the restatement is ps2_heuristic, and the numpy kernel is the closed form
        rng = np.random.default_rng(17)
        for _ in range(5):
            gamma = rng.uniform(0.5, 4.0)
            alpha = np.sqrt(1.0 + gamma ** 2) + rng.uniform(0.0, 1.0)
            beta = np.sqrt(1.0 + gamma ** 2) + rng.uniform(0.0, 1.0)
            exact = float(h.subs({a: alpha, b: beta, g: gamma}).evalf(30))
            cm = BipartiteCM.standard_form(alpha, beta, gamma, check=False)
            assert 1.0 + ps2_heuristic(cm).h == pytest.approx(1.0 + exact, rel=1e-12)
            assert heuristic_factor(alpha, beta, gamma) == pytest.approx(
                1.0 + exact, rel=1e-13)

    def test_nonpositive_normalization_rejected_in_any_row(self):
        # E_0 = (alpha - 1)(beta - 1) + gamma^2 = -0.25 in the second row
        with pytest.raises(ValueError, match="E_0"):
            heuristic_factor(np.array([3.0, 0.5]), np.array([3.0, 1.5]),
                             np.array([2.0, 0.0]))

    def test_standard_form_subtraction_keeps_the_matrix_route_errors(self):
        with pytest.raises(ValueError, match="transmissivity"):
            ps2_standard_form(3.0, 3.0, 2.0, 1.0)
        # (1 - tau) alpha + 1 + tau = 0 makes X_A singular
        with pytest.raises(ValueError, match="singular X_A"):
            ps2_standard_form(np.array([3.0, -19.0]), 3.0, 0.0, 0.9)
        # den = ((1 + tau) + (1 - tau)(alpha - gamma)) (...) = 0 makes Y singular
        with pytest.raises(ValueError, match="singular Y"):
            ps2_standard_form(3.0, 3.0, np.array([2.0, 6.0]), 0.5)
        # the bounds hold for the unscaled x_a and y: a block far larger
        # than the other, which sets the scale, leaves neither singular
        assert np.isfinite(ps2_standard_form(3.0, 1e12, 1.0, 0.9)).all()


def ps2_standard_form_spelled_out(alpha, beta, gamma, tau):
    """distill.ps2_standard_form's terms without its checks, with every
    scaled entry, gamma^2 and (1 - alpha)(1 - beta) - gamma^2 formed where
    it is used: (q_a, q_b, gamma_tilde, den, s), alpha_tilde = 1 - q_a and
    beta_tilde = 1 - q_b, with den and each numerator scaled by s^2."""
    s = 2.0 ** -math.frexp(alpha + beta)[1]
    den = ((s + alpha * s) * (s + beta * s) - (gamma * s) * (gamma * s)
           + 2 * (s * s - (alpha * s) * (beta * s) + (gamma * s) * (gamma * s)) * tau
           + ((s - alpha * s) * (s - beta * s) - (gamma * s) * (gamma * s)) * tau ** 2)
    q_a = 2 * tau * ((s - alpha * s) * (s + beta * s) + (gamma * s) * (gamma * s)
                     + ((s - alpha * s) * (s - beta * s)
                        - (gamma * s) * (gamma * s)) * tau) / den
    q_b = 2 * tau * ((s + alpha * s) * (s - beta * s) + (gamma * s) * (gamma * s)
                     + ((s - alpha * s) * (s - beta * s)
                        - (gamma * s) * (gamma * s)) * tau) / den
    return q_a, q_b, 4 * tau * (gamma * s) / den * s, den, s


def physical_draws(count, seed):
    """(alpha, beta, gamma, tau) with alpha, beta >= sqrt(1 + gamma^2)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        gamma = float(rng.uniform(0.0, 5.0))
        alpha = math.sqrt(1.0 + gamma ** 2) + float(rng.uniform(0.0, 3.0))
        beta = math.sqrt(1.0 + gamma ** 2) + float(rng.uniform(0.0, 3.0))
        yield alpha, beta, gamma, float(rng.uniform(0.01, 0.99))


def test_subtraction_forms_each_term_once_bit_for_bit():
    for alpha, beta, gamma, tau in physical_draws(20000, seed=41):
        got = ps2_standard_form(alpha, beta, gamma, tau)
        q_a, q_b, gamma_t, _, _ = ps2_standard_form_spelled_out(alpha, beta, gamma, tau)
        assert [x.hex() for x in got[:3]] == [x.hex() for x in (1 - q_a, 1 - q_b, gamma_t)]


def test_success_probability_shares_the_subtraction_terms_bit_for_bit():
    for alpha, beta, gamma, tau in physical_draws(5000, seed=43):
        q_a, q_b, gamma_t, den, s = ps2_standard_form_spelled_out(alpha, beta, gamma, tau)
        # ((1 - tau) / tau)^2 E_0(Sigma-tilde) / den, 1/den carrying s^2; each
        # tau-carrying term is multiplied by (1 - tau) / tau before any product
        c = (1 - tau) / tau
        prob = ((q_a * c) * (q_b * c) + (gamma_t * c) ** 2) / den * s * s
        got = ps2_standard_form(alpha, beta, gamma, tau)
        assert got[3].hex() == prob.hex()


@pytest.mark.parametrize("n_th", [1250.0, 1e16, 1e60, 1e100, 1e160, 1e300])
@pytest.mark.parametrize("geometry", ["asym", "sym"])
def test_subtraction_matches_the_exact_restatement(geometry, n_th):
    """All four outputs at table1 with n_th varied, against
    ps2_standard_form_mp with P in its quartic over den^3: unscaled, den^3
    overflows from about n_th = 1e50 (sym) and (1 - alpha)(1 - beta) from
    1e160. The restatement cancels about 2 log10 alpha digits."""
    p = channel.TABLE1
    triples = zip(*channel.tmst_params(p["mu"], np.linspace(0.0, 600.0, 13), n_th,
                                       p["eta_ant"], p["r"], p["n"], geometry))
    for triple in triples:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ps2_standard_form(*triple, p["tau"])
        digits = 40 + 4 * int(math.log10(max(triple)))
        want = [float(x) for x in ps2_standard_form_mp(*triple, p["tau"], digits)]
        for value, exact in zip(got, want):
            # exactly 0 where the exact value underflows
            assert value == exact if exact == 0.0 else (
                abs(value / exact - 1.0) <= 1e-12), (triple, got, want)


def test_success_probability_is_e0_of_the_subtracted_state():
    """P of ps2_standard_form, derived with sympy from the quartic over den^3:
    P tau^2 den = (1 - tau)^2 E_0(Sigma-tilde)."""
    from tests.test_teleport import ps2_standard_form_restated
    sp = pytest.importorskip("sympy")
    a, b, g, t = sp.symbols("alpha beta gamma tau", positive=True)
    alpha_t, beta_t, gamma_t, den = ps2_standard_form_restated(a, b, g, t)
    mixed = 1 - a * b + g ** 2 + ((1 - a) * (1 - b) - g ** 2) * t
    quartic = 4 * (1 - t) ** 2 * (mixed ** 2 - (a - b) ** 2 + 4 * g ** 2) / den ** 3
    e0 = (alpha_t - 1) * (beta_t - 1) + gamma_t ** 2
    assert sp.cancel(quartic * t ** 2 * den - (1 - t) ** 2 * e0) == 0


class TestSwap:
    def test_general_matches_symmetric_closed_form(self):
        # link 1 holds (kept A, measured B); link 2 holds (measured C, kept D)
        alpha, beta, gamma = 3.9, 4.6, 3.7
        cm1 = BipartiteCM.standard_form(alpha, beta, gamma, check=False)
        cm2 = BipartiteCM.standard_form(beta, alpha, gamma, check=False)
        out = swap(cm1, cm2)
        alpha_t, gamma_t = teleport.swapped_finite_gain_params(alpha, beta, gamma,
                                                               np.inf)
        np.testing.assert_allclose(out.sigma_a, alpha_t * np.eye(2),
                                   atol=1e-12)
        np.testing.assert_allclose(out.sigma_b, alpha_t * np.eye(2),
                                   atol=1e-12)
        np.testing.assert_allclose(out.eps, gamma_t * core.SIGMA_Z, atol=1e-12)

    def test_no_correlations_gives_product(self):
        cm = BipartiteCM.standard_form(2.0, 3.0, 0.0)
        out = swap(cm, cm)
        np.testing.assert_allclose(out.eps, 0.0, atol=1e-14)

    def test_reach_extension_from_negativity(self):
        # swapping two half-distance links extends the entanglement reach
        p = channel.TABLE1

        def swapped_negativity(length):
            ch = channel.AirChannel(p["mu"], length / 2.0, p["n_th"], 0.0)
            link = channel.lossy_tmst(ch, p["r"], p["n"], "asym")
            alpha_t, gamma_t = teleport.swapped_finite_gain_params(
                link.sigma_b[0, 0], link.sigma_a[0, 0], link.eps[0, 0], np.inf)
            return (1.0 - (alpha_t - gamma_t)) / (2.0 * (alpha_t - gamma_t))

        from scipy.optimize import brentq
        ch0 = channel.AirChannel(p["mu"], 0.0, p["n_th"], 0.0)
        # comparable geometry: the bare symmetric state also has both modes
        # travel half the end-to-end distance
        bare_reach = channel.l_max(ch0, p["r"], p["n"], "sym")
        swap_reach = brentq(swapped_negativity, 10.0, 2000.0, xtol=0.01)
        assert swap_reach / bare_reach - 1.0 == pytest.approx(0.14, abs=0.01)

    def test_swap_output_valid_across_sweep(self):
        p = channel.TABLE1
        for length in np.linspace(0.0, 500.0, 11):
            ch = channel.AirChannel(p["mu"], length / 2.0, p["n_th"], 0.0)
            link = channel.lossy_tmst(ch, p["r"], p["n"], "asym")
            alpha_t, gamma_t = teleport.swapped_finite_gain_params(
                link.sigma_b[0, 0], link.sigma_a[0, 0], link.eps[0, 0], np.inf)
            theta, valid = cm_validity(alpha_t, alpha_t, gamma_t)
            assert valid

    def test_singular_measurement_block_rejected(self):
        cm1 = BipartiteCM.standard_form(2.0, 1.0, 0.0, check=False)
        # unphysical second link canceling the measured block exactly
        bad = BipartiteCM(-np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)),
                          check=False)
        with pytest.raises(ValueError):
            swap(cm1, bad)


class TestCharacteristicFunctions:
    def test_normalized_at_origin(self):
        cm = BipartiteCM.from_state(core.tmst(0.6, 0.08))
        assert char_fn_2ps(cm, 0.95, (0, 0), (0, 0)) == pytest.approx(1.0)
        assert char_fn_heuristic(cm, (0, 0), (0, 0)) == pytest.approx(1.0)

    def test_heuristic_matches_fock_pointwise(self):
        r = 0.4
        cm = BipartiteCM.from_state(core.tmsv(r))
        ket, _ = fock_ops.photon_subtract(fock_ops.tmsv_ket(r, 50), 1)
        rng = np.random.default_rng(3)
        for _ in range(6):
            pt = rng.uniform(-0.9, 0.9, size=4)
            assert char_fn_heuristic(cm, pt[:2], pt[2:]) == pytest.approx(
                complex(fock_ops.char_fn(ket, pt)).real, abs=1e-8)

    def test_probabilistic_matches_fock_pointwise(self):
        r, tau = 0.4, 0.9
        cm = BipartiteCM.from_state(core.tmsv(r))
        ket, _ = fock_ops.ps_project(fock_ops.tmsv_ket(r, 50), tau, 1)
        rng = np.random.default_rng(5)
        for _ in range(6):
            pt = rng.uniform(-0.9, 0.9, size=4)
            assert char_fn_2ps(cm, tau, pt[:2], pt[2:]) == pytest.approx(
                complex(fock_ops.char_fn(ket, pt)).real, abs=1e-8)

    def test_probabilistic_tends_to_heuristic(self):
        cm = BipartiteCM.from_state(core.tmsv(0.4))
        grid = np.linspace(-0.8, 0.8, 5)
        for x in grid:
            for y in grid:
                c1 = char_fn_2ps(cm, 1.0 - 1e-9, (x, y), (y, x))
                c2 = char_fn_heuristic(cm, (x, y), (y, x))
                assert c1 == pytest.approx(c2, abs=1e-8)
