"""The array kernels behind the L sweeps against the per-row oracle route.

Each table of `channel`, `swap`, `distill` and `teleport` is computed in one
array call over the grid. Here every column is recomputed row by row through
the general covariance-matrix machinery: lossy_tmst, pts_eigenvalues,
ps2_gaussian, ps2_heuristic, the general swap and regaussify.
"""

import numpy as np
import pytest

from cvmw import channel, cli, distill, teleport
from cvmw.entanglement import BipartiteCM, log_negativity, negativity, pts_eigenvalues

TABLE1 = channel.TABLE1
RTOL = 1e-12
# columns that cross zero, or are clipped at it, also pass within ATOL: the
# gain, theta and the negativities
ATOL = 1e-12
GRID = cli.SweepSpec("L", 0.0, 600.0, 31)


def draws(count, seed):
    """Seeded link parameters scattered around table1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield dict(r=rng.uniform(0.5, 1.5), n=rng.uniform(0.0, 0.05),
                   mu=TABLE1["mu"] * rng.uniform(0.5, 2.0),
                   n_th=TABLE1["n_th"] * rng.uniform(0.5, 2.0),
                   eta_ant=rng.choice([0.0, rng.uniform(0.0, 1e-4)]),
                   tau=rng.uniform(0.8, 0.99),
                   inv_gain=TABLE1["inv_gain"] * rng.uniform(0.5, 2.0))


def link_cm(p, length, geometry):
    ch = channel.AirChannel(p["mu"], length, p["n_th"], p["eta_ant"])
    return channel.lossy_tmst(ch, p["r"], p["n"], geometry)


def swapped_cm(p, length):
    """General swap of two L/2 links; Charlie measures their lossy modes."""
    lossy, kept, gamma = link_cm(p, length / 2.0, "asym").standard_params()
    return distill.swap(BipartiteCM.standard_form(kept, lossy, gamma, check=False),
                        BipartiteCM.standard_form(lossy, kept, gamma, check=False))


def theta_of(cm):
    """cm_validity's theta from the 4x4 determinant."""
    return (abs(np.sqrt(np.linalg.det(cm.matrix)) - 1.0)
            - abs(cm.sigma_a[0, 0] - cm.sigma_b[0, 0]))


def check_columns(table, oracle, absolute=()):
    assert list(table) == list(oracle)
    for name, expected in oracle.items():
        expected = np.array(expected, dtype=float)
        atol = ATOL if name in absolute else 0.0
        np.testing.assert_allclose(table[name], expected, rtol=RTOL, atol=atol,
                                   err_msg=name)


def oracle_table(rows):
    return {name: [row[name] for row in rows] for name in rows[0]}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_channel_columns(seed):
    for p in draws(4, seed):
        rows = []
        for length in GRID.values():
            row = {"L": length}
            for geometry in ("asym", "sym"):
                cm = link_cm(p, length, geometry)
                row["nu_minus_" + geometry] = pts_eigenvalues(cm)[0]
                row["log_neg_" + geometry] = log_negativity(cm)
            row["eta_env"] = channel.eta_env(
                channel.AirChannel(p["mu"], length, p["n_th"], p["eta_ant"]))
            rows.append(row)
        check_columns(cli.COMMANDS["channel"]["table"](p, GRID), oracle_table(rows),
                      absolute=("log_neg_asym", "log_neg_sym"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_swap_columns(seed):
    for p in draws(4, seed):
        rows = []
        for length in GRID.values():
            lossy, kept, gamma = link_cm(p, length / 2.0, "asym").standard_params()
            out = swapped_cm(p, length)
            rows.append({"L": length, "alpha": kept, "beta": lossy, "gamma": gamma,
                         "alpha_swap": out.sigma_a[0, 0], "gamma_swap": out.eps[0, 0],
                         "nu_minus": pts_eigenvalues(out)[0],
                         "negativity": negativity(out),
                         "fidelity": teleport.fidelity_gaussian(out),
                         "theta": theta_of(out), "valid": 1.0})
        table = cli.COMMANDS["swap"]["table"](p, GRID)
        check_columns(table, oracle_table(rows), absolute=("negativity", "theta"))
        assert table["valid"].dtype.kind == "i"


def fidelity_oracle(kind, p, length):
    res = teleport.TeleportResource(kind, p["r"], p["n"], p["mu"], p["n_th"],
                                    p["eta_ant"], p["tau"], p["inv_gain"])
    gain = 1.0 / p["inv_gain"]
    if kind == "swap":
        return teleport.fidelity_gaussian(swapped_cm(p, length))
    if kind == "swap-fg":
        lossy, kept, gamma = link_cm(p, length / 2.0, "asym").standard_params()
        a_t, g_t = teleport.swapped_finite_gain_params(kept, lossy, gamma, gain)
        return teleport.fidelity_finite_gain(a_t, a_t, g_t, gain)
    cm = link_cm(p, length, res.geometry)
    if kind.startswith("2ps-prob"):
        return teleport.fidelity_2ps_general(cm, p["tau"])[0]
    if kind.startswith("2ps-heur"):
        return teleport.fidelity_heuristic(cm)[0]
    if kind.endswith("-fg"):
        return teleport.fidelity_finite_gain(*cm.standard_params(), gain)
    return teleport.fidelity_gaussian(cm)


@pytest.mark.parametrize("kind", teleport.TeleportResource.KINDS)
def test_teleport_columns(kind):
    geometry = teleport.TeleportResource(kind, 1.0, 0.0, 0.0, 0.0,
                                         inv_gain=1.0).geometry
    for p in draws(4, seed=11):
        rows = []
        for length in GRID.values():
            f = fidelity_oracle(kind, p, length)
            fb = teleport.fidelity_gaussian(link_cm(p, length, geometry))
            rows.append({"L": length, "fidelity": f, "fidelity_bare": fb,
                         "gain": f - fb})
        check_columns(cli.COMMANDS["teleport"]["table"](dict(p, resource=kind), GRID),
                      oracle_table(rows), absolute=("gain",))


@pytest.mark.parametrize("geometry", ["asym", "sym"])
def test_distill_columns(geometry):
    for p in draws(6, seed=21):
        rows = []
        for length in GRID.values():
            cm = link_cm(p, length, geometry)
            out = distill.ps2_gaussian(cm, p["tau"])
            rg_p = teleport.regaussify(out.cm(check=False), out.g, geometry)[0]
            rg_h = teleport.regaussify(cm, distill.ps2_heuristic(cm).h, geometry)[0]
            rows.append({"L": length, "e_n_bare": log_negativity(cm),
                         "n_bare": negativity(cm), "p2": out.probability,
                         "n_prob": negativity(rg_p), "n_heur": negativity(rg_h),
                         "e_n_prob": log_negativity(rg_p),
                         "e_n_heur": log_negativity(rg_h),
                         "theta_prob": theta_of(rg_p), "theta_heur": theta_of(rg_h)})
        inputs = dict(p, geometry=geometry)
        check_columns(cli.COMMANDS["distill"]["table"](inputs, GRID), oracle_table(rows),
                      absolute=("e_n_bare", "n_bare", "n_prob", "n_heur", "e_n_prob",
                                "e_n_heur", "theta_prob", "theta_heur"))


def test_corrections_match_the_matrix_route():
    """h and g over the grid, on 1 + h: both cross zero inside the sweeps."""
    for p in draws(8, seed=31):
        for geometry in ("asym", "sym"):
            ch = channel.AirChannel(p["mu"], GRID.values(), p["n_th"], p["eta_ant"])
            bare = channel.lossy_tmst_params(ch, p["r"], p["n"], geometry)
            tilde = distill.ps2_standard_form(*bare, p["tau"])[:3]
            h = distill.heuristic_correction(*bare)
            g = distill.heuristic_correction(*tilde)
            for i, length in enumerate(GRID.values()):
                cm = link_cm(p, length, geometry)
                assert 1.0 + h[i] == pytest.approx(1.0 + distill.ps2_heuristic(cm).h,
                                                   rel=RTOL)
                assert 1.0 + g[i] == pytest.approx(
                    1.0 + distill.ps2_gaussian(cm, p["tau"]).g, rel=RTOL)
