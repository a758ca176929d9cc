"""Each op checks every distinct covariance matrix and channel it receives
exactly once: a validation is a Cholesky factorization and one symplectic
spectrum, a channel check one AirChannel. The QFIs check their standard-form
states in closed form and validate no matrix."""

import numpy as np
import pytest

from cvmw import bifreq, channel, core, estimation, illumination, teleport


@pytest.fixture
def checks(monkeypatch):
    seen = {"cholesky": [], "spectrum": [], "channels": 0}
    cholesky, spectrum = np.linalg.cholesky, core._spectrum
    post_init = channel.AirChannel.__post_init__

    def counted_cholesky(a):
        seen["cholesky"].append(np.array(a).tobytes())
        return cholesky(a)

    def counted_spectrum(sigma):
        seen["spectrum"].append(np.array(sigma).tobytes())
        return spectrum(sigma)

    def counted_post_init(ch):
        seen["channels"] += 1
        post_init(ch)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(core, "_spectrum", counted_spectrum)
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
