import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from cvmw import channel, core, distill, fock, illumination, teleport
from cvmw.entanglement import (BipartiteCM, cm_validity, log_negativity_from_nu,
                               negativity, nu_minus_standard, pts_eigenvalues)
from tests.oracles import fock_ops
from tests.oracles.general import partial_trace, regaussify, rotation
from tests.oracles.routes import nu_minus_mp, two_mode_symplectic_eigenvalues


def log_negativity(cm):
    return log_negativity_from_nu(pts_eigenvalues(cm)[0])


class TestPtsEigenvalues:
    def test_tmsv(self):
        cm = BipartiteCM.from_state(core.tmsv(0.9))
        nu_minus, nu_plus = pts_eigenvalues(cm)
        assert nu_minus == pytest.approx(np.exp(-1.8), abs=1e-12)
        assert nu_plus == pytest.approx(np.exp(1.8), abs=1e-10)

    def test_thermal_product(self):
        cm = BipartiteCM(3.0 * np.eye(2), 5.0 * np.eye(2), np.zeros((2, 2)))
        nu_minus, nu_plus = pts_eigenvalues(cm)
        assert nu_minus == pytest.approx(3.0)
        assert nu_plus == pytest.approx(5.0)
        assert nu_minus >= 1.0

    def test_ordering_always_holds(self):
        rng = np.random.default_rng(9)
        from tests.test_core import random_valid_cm
        for _ in range(50):
            cm = BipartiteCM.from_matrix(random_valid_cm(rng), check=False)
            nu_minus, nu_plus = pts_eigenvalues(cm)
            assert 0.0 <= nu_minus <= nu_plus

    def test_qi_probe_closed_form_cross_check(self):
        for n_s in (0.2, 1.0, 3.0):
            for n_th in (0.0, 0.5, 2.0):
                probe = illumination.qi_probe(n_s, n_th)
                block = partial_trace(probe, keep=(1, 2))
                nu_minus, _ = pts_eigenvalues(BipartiteCM.from_state(block))
                assert nu_minus == pytest.approx(
                    illumination.probe_nu_minus(n_s, n_th), abs=1e-12)


def seeded_link_triples(seed=27, count=1000):
    """{name: (alpha, beta, gamma) arrays} of seeded lossy links: both
    geometries, their probabilistic and heuristic re-Gaussified triples as
    the distill table forms them, and the swapped triple of two L/2 links."""
    rng = np.random.default_rng(seed)
    links = list(zip(10 ** rng.uniform(-6, -3, count), rng.uniform(0, 1000, count),
                     10 ** rng.uniform(-2, 4, count), rng.uniform(0, 1, count),
                     rng.uniform(0, 2.5, count), rng.uniform(0, 0.5, count)))

    def triple(geometry, half=False):
        return tuple(map(np.array, zip(*(channel.tmst_params(
            mu, length / 2 if half else length, *rest, geometry)
            for mu, length, *rest in links))))

    out = {}
    for geometry in ("asym", "sym"):
        bare = out[geometry] = triple(geometry)
        tilde = distill.ps2_standard_form(*bare, channel.TABLE1["tau"])[:3]
        for tag, source in (("prob", tilde), ("heur", bare)):
            out["%s-rg-%s" % (geometry, tag)] = teleport.regaussify_standard(
                *source, distill.heuristic_factor(*source), geometry)
    lossy, kept, gamma = triple("asym", half=True)
    alpha_t, gamma_t = teleport.swapped_finite_gain_params(kept, lossy, gamma, np.inf)
    out["swap"] = (alpha_t, alpha_t, gamma_t)
    return out


class TestNuMinusStandard:
    @pytest.mark.parametrize("name", ["asym", "sym", "asym-rg-prob", "asym-rg-heur",
                                      "sym-rg-prob", "sym-rg-heur", "swap"])
    def test_seeded_links_match_60_digits(self, name):
        """|D| over the larger eigenvalue loses only what D = alpha beta -
        gamma^2 loses to rounding; the discriminant form also lost digits
        where nu_minus nears nu_plus (2e-9 on the symmetric re-Gaussified
        links)."""
        alpha, beta, gamma = np.broadcast_arrays(*seeded_link_triples()[name])
        got = nu_minus_standard(alpha, beta, gamma)
        want = np.array([nu_minus_mp(*t) for t in zip(alpha, beta, gamma)])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


class TestNegativity:
    def test_separable_gives_zero(self):
        cm = BipartiteCM(2.0 * np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)))
        assert negativity(cm) == 0.0
        assert log_negativity(cm) == 0.0

    def test_separable_log_negativity_is_positive_zero(self):
        # -log2(1) is -0.0; a separable state prints 0, not -0
        assert not np.signbit(log_negativity_from_nu(1.0))
        assert not np.signbit(log_negativity_from_nu(np.array([1.0, 2.0, 1.0]))).any()
        vacua = BipartiteCM(np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert log_negativity(vacua) == 0.0 and not np.signbit(log_negativity(vacua))

    def test_log_negativity_edges(self):
        """math.log2 raises at 0: inf there, NaN kept, and +0.0 from 1 up."""
        edges = [0.0, -0.0, math.nan, 1.0, math.inf]
        want = [math.inf, math.inf, math.nan, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = log_negativity_from_nu(np.array(edges))
            scalars = [log_negativity_from_nu(nu) for nu in edges]
        for got in (rows, np.array(scalars)):
            np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))

    def test_scalar_log_negativity_is_its_array_row(self):
        nu = np.concatenate([np.random.default_rng(3).uniform(0.0, 2.0, 200),
                             np.geomspace(1e-300, 1.0, 50), [0.0, 1.0, math.nan]])
        rows = log_negativity_from_nu(nu).view(np.int64)
        assert rows.tolist() == np.array(
            [log_negativity_from_nu(x) for x in nu.tolist()]).view(np.int64).tolist()

    def test_tmsv_r1_value(self):
        # oracle value from the truncated Fock computation
        cm = BipartiteCM.from_state(core.tmsv(1.0))
        fock_value = fock_ops.ket_negativity(fock_ops.tmsv_ket(1.0, 60))
        assert negativity(cm) == pytest.approx(fock_value, abs=1e-6)
        assert negativity(cm) == pytest.approx((np.exp(2.0) - 1.0) / 2.0,
                                               abs=1e-10)

    def test_qi_probe_reduces_to_tmsv_curve_at_zero_bath(self):
        for n_s in (0.3, 1.5):
            probe = illumination.qi_probe(n_s, 0.0)
            block = BipartiteCM.from_state(partial_trace(probe, keep=(1, 2)))
            r = np.arcsinh(np.sqrt(n_s))
            tm = BipartiteCM.from_state(core.tmsv(r))
            assert negativity(block) == pytest.approx(negativity(tm), rel=1e-10)

    def test_log_negativity_identity(self):
        cm = BipartiteCM.from_state(core.tmst(0.8, 0.1))
        assert log_negativity(cm) == pytest.approx(
            np.log2(2.0 * negativity(cm) + 1.0))

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(21)
        cm = BipartiteCM.from_state(core.tmst(0.7, 0.05))
        base = negativity(cm)
        for _ in range(5):
            rot = block_diag(rotation(rng.uniform(0, np.pi)),
                             rotation(rng.uniform(0, np.pi)))
            out = core.apply(cm.to_state(), rot)
            assert negativity(BipartiteCM.from_state(out)) == pytest.approx(
                base, abs=1e-10)

    def test_gaussian_matches_fock_on_tmst_point(self):
        r, n = 0.5, 0.02
        rho = fock.tmst_density(r, n, 35)
        cm = BipartiteCM.from_state(core.tmst(r, n))
        assert negativity(cm) == pytest.approx(
            fock.negativity_fock(rho, (36, 36)), abs=1e-6)


class TestCmValidity:
    def test_tmsv_saturates(self):
        alpha = np.cosh(2.0)
        gamma = np.sinh(2.0)
        theta, valid = cm_validity(alpha, alpha, gamma)
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert valid

    def test_thermal_product_grid(self):
        for n_a in np.linspace(0.0, 2.0, 9):
            for n_b in np.linspace(0.0, 2.0, 9):
                alpha, beta = 1.0 + 2.0 * n_a, 1.0 + 2.0 * n_b
                theta, valid = cm_validity(alpha, beta, 0.0)
                assert valid
                assert theta == pytest.approx(
                    abs(alpha * beta - 1.0) - abs(alpha - beta), abs=1e-12)

    def test_alpha_below_one_flagged(self):
        theta, valid = cm_validity(0.9, 2.0, 0.0)
        assert not valid

    def test_determinant_below_one_flagged(self):
        """|D - 1| >= |alpha - beta| also holds where both symplectic
        eigenvalues are below 1: (1, 1, 0.5) has D = 0.75, nu = 0.866."""
        theta, valid = cm_validity(1.0, 1.0, 0.5)
        assert theta == 0.25 and not valid
        sigma = BipartiteCM.standard_form(1.0, 1.0, 0.5, check=False).sigma
        assert two_mode_symplectic_eigenvalues(sigma) == pytest.approx([0.75 ** 0.5] * 2)

    def test_regaussified_families_valid_where_physical(self):
        # entanglement swapping stays a valid covariance matrix along the
        # whole sweep; each of the four re-Gaussified subtraction variants is
        # valid exactly where its symplectic spectrum is at least 1, which
        # near the source it is not (D < 1 up to about 20-25 m), and from 40 m on
        p = channel.TABLE1
        for length in np.linspace(0.0, 500.0, 26):
            ch = channel.AirChannel(p["mu"], length, p["n_th"], 0.0)
            half = channel.AirChannel(p["mu"], length / 2.0, p["n_th"], 0.0)
            link = channel.lossy_tmst(half, p["r"], p["n"], "asym")
            alpha_t, gamma_t = teleport.swapped_finite_gain_params(
                link.sigma_b[0, 0], link.sigma_a[0, 0], link.eps[0, 0], np.inf)
            theta, valid = cm_validity(alpha_t, alpha_t, gamma_t)
            assert valid, "swap family invalid at L=%.0f" % length
            for geometry in ("sym", "asym"):
                cm = channel.lossy_tmst(ch, p["r"], p["n"], geometry)
                mach = distill.ps2_heuristic(cm)
                out = distill.ps2_gaussian(cm, p["tau"])
                for name, (rg, _, ok) in (("heuristic", regaussify(cm, mach.h, geometry)),
                                          ("probabilistic", regaussify(out.cm, out.g, geometry))):
                    physical = two_mode_symplectic_eigenvalues(rg.sigma).min() >= 1.0
                    assert ok == physical, "%s %s at L=%.0f" % (name, geometry, length)
                    assert ok or length < 40.0, "%s %s invalid at L=%.0f" % (
                        name, geometry, length)


class TestBipartiteCM:
    def test_standard_form_roundtrip(self):
        cm = BipartiteCM.standard_form(3.0, 2.5, 1.5)
        assert cm.standard_params() == pytest.approx((3.0, 2.5, 1.5))

    def test_non_standard_raises(self):
        cm = BipartiteCM.from_state(core.apply(
            core.tmst(0.5, 0.1), rotation(0.3), on=(0,)))
        with pytest.raises(ValueError):
            cm.standard_params()

    def test_unphysical_assembly_rejected(self):
        with pytest.raises(core.PhysicalityError):
            BipartiteCM.standard_form(1.0, 1.0, 0.9)

    def test_checked_cm_keeps_its_validated_state(self):
        cm = BipartiteCM.from_state(core.tmst(0.5, 0.1))
        state = cm.to_state()
        assert cm.to_state() is state
        np.testing.assert_array_equal(state.sigma, cm.matrix)
        for block in (cm.sigma_a, cm.sigma_b, cm.eps, state.sigma):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0

    def test_unchecked_cm_validates_in_to_state(self):
        cm = BipartiteCM.standard_form(1.0, 1.0, 0.9, check=False)
        cm.sigma_a[0, 0] = 1.0  # writable
        with pytest.raises(core.PhysicalityError):
            cm.to_state()

    def test_cm_is_a_two_mode_state_read_in_blocks(self):
        """One Sigma: the blocks are views of it, read-only once validated,
        and the CM is its own validated state."""
        assert issubclass(BipartiteCM, core.GaussianState)
        cm = BipartiteCM.from_state(core.tmst(0.5, 0.1))
        assert cm.n_modes == 2 and not hasattr(cm, "_state")
        assert cm.to_state() is cm
        for block in (cm.sigma_a, cm.sigma_b, cm.eps):
            assert np.shares_memory(block, cm.sigma)
            assert not block.flags.writeable
        np.testing.assert_array_equal(cm.eps.T, cm.sigma[2:, :2])
        matrix = cm.matrix
        np.testing.assert_array_equal(matrix, cm.sigma)
        assert not np.shares_memory(matrix, cm.sigma)

    def test_unchecked_cm_writes_through_to_sigma(self):
        cm = BipartiteCM.standard_form(2.0, 2.0, 1.0, check=False)
        cm.sigma_b[0, 0] = 2.5
        assert cm.sigma[2, 2] == 2.5
        state = cm.to_state()
        assert state is not cm and not state.sigma.flags.writeable
        assert state.sigma[2, 2] == 2.5
        assert cm.sigma.flags.writeable  # the copy was validated, not the CM

    def test_blocks_must_be_two_by_two(self):
        with pytest.raises(ValueError, match="2x2"):
            BipartiteCM(np.eye(2), np.eye(3), np.zeros((2, 2)))
