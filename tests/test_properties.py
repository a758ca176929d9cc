"""Properties of the classical limits, drawn by hypothesis from ranges inside
the CLI's parameter domains (cli.PARAMS), with a fixed seed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cvmw import channel, cli  # noqa: E402
from cvmw.teleport import BEYOND_MAX, MAX_DISTANCE, TeleportResource  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)
SYM_REACH_KINDS = ("tmst-sym", "2ps-prob-sym", "2ps-heur-sym")


def within(key, lo, hi):
    """Floats in [lo, hi], a range inside the domain of key in cli.PARAMS."""
    cli._check(key, lo)
    cli._check(key, hi)
    return st.floats(lo, hi)


LINKS = st.fixed_dictionaries(dict(
    r=within("r", 0.05, 2.0), n=within("n", 0.0, 0.5),
    mu=within("mu", 2e-7, 5e-6), n_th=within("n_th", 1.0, 5000.0),
    eta_ant=within("eta_ant", 0.0, 0.3), tau=within("tau", 0.05, 0.99),
    inv_gain=within("inv_gain", 1e-3, 0.05)))


def resource(kind, link):
    return TeleportResource(kind, link["r"], link["n"], link["mu"], link["n_th"],
                            link["eta_ant"], link["tau"], link["inv_gain"])


@PROPERTY
@given(link=LINKS, length=within("L", 0.0, MAX_DISTANCE),
       kind=st.sampled_from(SYM_REACH_KINDS))
def test_sym_kinds_beat_half_exactly_where_alpha_minus_gamma_is_below_one(
        link, length, kind):
    alpha, _, gamma = channel.tmst_params(link["mu"], length, link["n_th"],
                                          link["eta_ant"], link["r"], link["n"], "sym")
    margin = 1.0 - alpha + gamma
    hypothesis.assume(abs(margin) > 1e-9 * alpha)  # rounding decides a near tie
    excess = resource(kind, link).fidelity(length) - 0.5
    assert (excess > 0.0) == (margin > 0.0)


@PROPERTY
@given(link=LINKS, length=within("L", 0.0, MAX_DISTANCE),
       kind=st.sampled_from(("swap", "swap-fg")))
def test_swap_kinds_beat_half_exactly_where_the_swap_condition_is_positive(
        link, length, kind):
    res = resource(kind, link)
    (c0, c1, c2), sigma = res._half_fidelity_poly()  # teleport.swap_condition
    u = -math.expm1(-link["mu"] * length / 2.0) / sigma  # 1 - t / t0 of an L/2 link
    value = c0 + u * (c1 + u * c2)
    excess = res.fidelity(length) - 0.5
    # rounding decides a near tie
    hypothesis.assume(abs(value) > 1e-9 * (abs(c0) + abs(c1 * u) + abs(c2 * u * u)))
    hypothesis.assume(abs(excess) > 1e-12)
    assert (excess > 0.0) == (value > 0.0)


@PROPERTY
@given(link=LINKS, kind=st.sampled_from(TeleportResource.KINDS))
def test_fidelity_is_half_at_the_classical_limit(link, kind):
    res = resource(kind, link)
    try:
        length = res.classical_limit_distance()
    except ValueError as exc:
        assert str(exc) == BEYOND_MAX
        assert res.fidelity(MAX_DISTANCE) > 0.5
        return
    if length == 0.0:
        assert res.fidelity(0.0) <= 0.5
    else:
        assert abs(res.fidelity(length) - 0.5) <= 1e-4
