"""Each op checks every distinct covariance matrix and channel it receives
exactly once: a channel check is one AirChannel, and a validation is one
closed-form check where Sigma is a direct sum of single modes and
standard-form pairs, as every state the CLI builds is, else a Cholesky
factorization and one symplectic spectrum. The QFIs check their
standard-form states in closed form and validate no matrix. The entry
points that take parameters refuse each one outside its domain."""

import collections
import os
import re

import numpy as np
import pytest

from cvmw import bifreq, channel, cli, core, estimation, illumination, teleport
from cvmw.entanglement import BipartiteCM


@pytest.fixture
def checks(monkeypatch):
    seen = {"cholesky": [], "spectrum": [], "closed_form": [], "channels": 0}
    cholesky, spectrum, closed_form = np.linalg.cholesky, core._spectrum, core._closed_form
    post_init = channel.AirChannel.__post_init__

    def counted_cholesky(a):
        seen["cholesky"].append(np.array(a).tobytes())
        return cholesky(a)

    def counted_spectrum(sigma):
        seen["spectrum"].append(np.array(sigma).tobytes())
        return spectrum(sigma)

    def counted_closed_form(sigma):
        seen["closed_form"].append(np.array(sigma).tobytes())
        return closed_form(sigma)

    def counted_post_init(ch):
        seen["channels"] += 1
        post_init(ch)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(core, "_spectrum", counted_spectrum)
    monkeypatch.setattr(core, "_closed_form", counted_closed_form)
    monkeypatch.setattr(channel.AirChannel, "__post_init__", counted_post_init)
    return seen


def assert_each_once(seen, matrices, channels):
    assert seen["cholesky"] == seen["spectrum"]
    assert len(set(seen["cholesky"])) == len(seen["cholesky"]) == matrices
    assert seen["channels"] == channels


def test_illumination_qfi(checks):
    q = illumination.QiParams(1.0, 1.0, 0.3, 1e-4)
    h = estimation.gaussian_qfi(illumination.received_family(q))
    assert h == pytest.approx(illumination.h_q(q), rel=1e-6)
    assert_each_once(checks, 0, 0)


def test_bifreq_qfi(checks):
    # the closed form builds neither the probe nor the received matrix
    bifreq.h_q_bifreq(bifreq.BifreqParams(0.9, 0.0, 1.0, 0.01, 1.0))
    assert_each_once(checks, 0, 0)


@pytest.mark.parametrize("kind", ["2ps-prob-asym", "2ps-heur-sym"])
def test_2ps_classical_limit(checks, kind):
    p = channel.TABLE1
    teleport.TeleportResource(kind, p["r"], p["n"], p["mu"], p["n_th"],
                              p["eta_ant"], p["tau"]).classical_limit_distance()
    assert_each_once(checks, 0, 1)


@pytest.mark.parametrize("kind", list(cli.STATES))
def test_state_command(checks, kind):
    # every kind is checked once, in closed form, and not again before it is
    # printed
    assert cli.main(["state", "--kind", kind, "--out", os.devnull]) == 0
    assert checks["cholesky"] == checks["spectrum"] == []
    assert len(checks["closed_form"]) == 1
    assert checks["channels"] == (1 if kind.startswith("lossy-tmst") else 0)


def test_summary_solves_each_classical_limit_once(monkeypatch):
    kinds = collections.Counter()
    solve = teleport.TeleportResource.classical_limit_distance

    def counted(resource):
        kinds[resource.kind] += 1
        return solve(resource)

    monkeypatch.setattr(teleport.TeleportResource, "classical_limit_distance", counted)
    assert cli.main(["summary", "--out", os.devnull]) == 0
    assert set(kinds.values()) == {1}, kinds


@pytest.mark.parametrize("build,message", [
    (lambda: bifreq.BifreqParams(1.5), "reflectivities must lie in [0, 1]"),
    (lambda: bifreq.BifreqParams(0.5, 0.6), "reflectivities must lie in [0, 1]"),
    (lambda: bifreq.BifreqParams(0.5, 0.0, -1.0), "photon numbers must be non-negative"),
    (lambda: bifreq.BifreqParams(0.5, 0.0, 1.0, 0.0, -1.0),
     "photon numbers must be non-negative"),
    (lambda: illumination.QiParams(-1.0, 1.0), "invalid illumination parameters"),
    (lambda: illumination.QiParams(1.0, 1.0, 0.0, 1.5), "invalid illumination parameters"),
    (lambda: teleport.TeleportResource("tmst", 1.0, 0.0, 1e-6, 1.0),
     "unknown resource kind 'tmst'"),
    (lambda: teleport.fidelity_finite_gain(3.0, 3.0, 2.0, 0.0), "gain must be positive"),
    (lambda: BipartiteCM.from_matrix(np.eye(2)), "expected a 4x4 covariance matrix"),
    (lambda: BipartiteCM.from_state(core.thermal(1, 0.5)), "expected a two-mode state"),
], ids=["eta1", "eta2", "n_r", "n_th", "qi-n_s", "qi-eta", "kind", "gain",
        "from_matrix", "from_state"])
def test_out_of_domain_input_raises_its_message(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
