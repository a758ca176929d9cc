import numpy as np
import pytest
from scipy.special import hyp2f1 as scipy_hyp2f1

from cvmw import channel, core, fock, teleport
from cvmw.distill import (char_fn_2ps, char_fn_heuristic,
                          heuristic_negativity, hyp2f1, ps2_gaussian,
                          ps2_heuristic, ps2_standard_form, PsTmsv, swap,
                          swap_symmetric, tmsv_negativity)
from cvmw.entanglement import BipartiteCM, cm_validity, negativity


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(1.5, 2.5, 1.0, 0.0) == 1.0

    def test_geometric_series(self):
        for z in (0.1, 0.5, 0.9):
            assert hyp2f1(1.0, 1.0, 1.0, z) == pytest.approx(1.0 / (1.0 - z),
                                                             rel=1e-14)

    def test_against_brute_force_summation(self):
        # direct 10^4-term sum at z = 0.9
        z, a, b, c = 0.9, 2.0, 2.0, 1.0
        total, term = 1.0, 1.0
        for n in range(10000):
            term *= (a + n) * (b + n) / (c + n) * z / (n + 1.0)
            total += term
        assert hyp2f1(a, b, c, z) == pytest.approx(total, rel=1e-12)

    def test_against_scipy(self):
        for args in ((2.0, 2.0, 1.0, 0.64), (3.0, 3.0, 1.0, 0.25),
                     (1.5, 0.5, 2.0, -0.8)):
            assert hyp2f1(*args) == pytest.approx(float(scipy_hyp2f1(*args)),
                                                  rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, -2.0, 0.5)


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
                        ps.success_probability_series(), abs=1e-12)

    def test_against_fock_brute_force(self):
        # beam splitters + ancillas + projection on |1,1>, truncated space
        lam, tau = np.tanh(0.5), 0.95
        ps = PsTmsv(lam, tau, 1)
        ket, prob = fock.ps_project(fock.tmsv_ket(0.5, 60), tau, 1)
        assert prob == pytest.approx(ps.success_probability(), abs=1e-12)
        assert fock.ket_negativity(ket) == pytest.approx(ps.negativity(),
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
            assert out.sigma_a[0, 0] == pytest.approx(at, rel=1e-12)
            assert out.sigma_b[0, 0] == pytest.approx(bt, rel=1e-12)
            assert out.eps[0, 0] == pytest.approx(gt, rel=1e-12)
            assert out.probability == pytest.approx(prob, rel=1e-10)

    def test_tmsv_maps_to_rescaled_tmsv(self):
        r, tau = 0.5, 0.95
        lam_tau = np.tanh(r) * tau
        out = ps2_gaussian(BipartiteCM.from_state(core.tmsv(r)), tau)
        r_eff = np.arctanh(lam_tau)
        np.testing.assert_allclose(out.cm(check=False).matrix,
                                   core.tmsv(r_eff).sigma, atol=1e-12)
        assert out.probability == pytest.approx(
            PsTmsv(np.tanh(r), tau, 1).success_probability(), rel=1e-10)

    def test_symmetry_preserved(self):
        cm = BipartiteCM.standard_form(3.8, 3.8, 3.2)
        out = ps2_gaussian(cm, 0.9)
        np.testing.assert_allclose(out.sigma_a, out.sigma_b, atol=1e-12)

    def test_assembled_blocks_symmetric(self):
        cm = BipartiteCM.standard_form(4.0, 3.5, 3.0)
        out = ps2_gaussian(cm, 0.92)
        for m in (out.sigma_a, out.sigma_b, out.p1, out.q2, out.r1):
            np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_success_probability_magnitude_and_efficiency_peak(self):
        # lossy source states: P2 in the 1e-3..1e-2 range and the efficiency
        # P * (fidelity gain) peaking near tau = 0.92
        p = channel.TABLE1
        ch = channel.AirChannel(p["mu"], 0.0, p["n_th"], 0.0)
        cm = channel.lossy_tmst(ch, p["r"], p["n"], "sym")
        f_bare = teleport.fidelity_gaussian(cm)
        taus = np.linspace(0.9, 0.995, 40)
        effs = []
        for tau in taus:
            out = ps2_gaussian(cm, tau)
            fbar, _ = teleport.fidelity_2ps_general(cm, tau, outcome=out)
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
        assert mach.norm == pytest.approx(1.0 / mach.e0)

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


class TestSwap:
    def test_general_matches_symmetric_closed_form(self):
        # link 1 holds (kept A, measured B); link 2 holds (measured C, kept D)
        alpha, beta, gamma = 3.9, 4.6, 3.7
        cm1 = BipartiteCM.standard_form(alpha, beta, gamma, check=False)
        cm2 = BipartiteCM.standard_form(beta, alpha, gamma, check=False)
        out = swap(cm1, cm2)
        alpha_t, gamma_t = swap_symmetric(alpha, beta, gamma)
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
            alpha_t, gamma_t = swap_symmetric(
                link.sigma_b[0, 0], link.sigma_a[0, 0], link.eps[0, 0])
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
            alpha_t, gamma_t = swap_symmetric(
                link.sigma_b[0, 0], link.sigma_a[0, 0], link.eps[0, 0])
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
        ket, _ = fock.photon_subtract(fock.tmsv_ket(r, 50), 1)
        rng = np.random.default_rng(3)
        for _ in range(6):
            pt = rng.uniform(-0.9, 0.9, size=4)
            assert char_fn_heuristic(cm, pt[:2], pt[2:]) == pytest.approx(
                complex(fock.char_fn(ket, pt)).real, abs=1e-8)

    def test_probabilistic_matches_fock_pointwise(self):
        r, tau = 0.4, 0.9
        cm = BipartiteCM.from_state(core.tmsv(r))
        ket, _ = fock.ps_project(fock.tmsv_ket(r, 50), tau, 1)
        rng = np.random.default_rng(5)
        for _ in range(6):
            pt = rng.uniform(-0.9, 0.9, size=4)
            assert char_fn_2ps(cm, tau, pt[:2], pt[2:]) == pytest.approx(
                complex(fock.char_fn(ket, pt)).real, abs=1e-8)

    def test_probabilistic_tends_to_heuristic(self):
        cm = BipartiteCM.from_state(core.tmsv(0.4))
        grid = np.linspace(-0.8, 0.8, 5)
        for x in grid:
            for y in grid:
                c1 = char_fn_2ps(cm, 1.0 - 1e-9, (x, y), (y, x))
                c2 = char_fn_heuristic(cm, (x, y), (y, x))
                assert c1 == pytest.approx(c2, abs=1e-8)

    def test_quadrature_fidelity_oracle(self):
        # overlap integral of the teleported output against the input CF
        # reproduces the closed-form subtraction fidelity
        r, tau = 0.3, 0.95
        cm = BipartiteCM.from_state(core.tmsv(r))
        outcome = ps2_gaussian(cm, tau)
        fbar, _ = teleport.fidelity_2ps_general(cm, tau, outcome=outcome)

        nodes, weights = np.polynomial.hermite.hermgauss(36)
        total = 0.0
        sz = np.array([1.0, -1.0])
        for i, x in enumerate(nodes):
            for j, y in enumerate(weights):
                pt = np.array([nodes[i], nodes[j]]) * np.sqrt(2.0)
                chi_e = char_fn_2ps(cm, tau, pt * sz, pt, outcome=outcome)
                total += weights[i] * weights[j] * 2.0 * chi_e
        # chi_in(-r) chi_in(r) = e^{-r.r/2}; Gauss-Hermite absorbs it
        fbar_quad = total / (2.0 * np.pi)
        assert fbar_quad == pytest.approx(fbar, abs=1e-6)
