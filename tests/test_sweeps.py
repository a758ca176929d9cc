"""Every array table of the CLI against a per-point route.

Each table is computed in one array call over its grid. Here every column is
recomputed point by point: the L sweeps of `channel`, `swap`, `distill` and
`teleport` through the general covariance-matrix machinery (lossy_tmst,
pts_eigenvalues, ps2_gaussian, ps2_heuristic, the general swap and
regaussify), and `negativity`, `illum`, `bifreq` and `satellite` through
the scalar library calls, with the bi-frequency QFI taken on the received
state built from the probe and its beam splitters.
"""

import numpy as np
import pytest

from cvmw import bifreq, channel, cli, distill, entanglement, illumination, teleport
from cvmw.entanglement import (BipartiteCM, log_negativity_from_nu, negativity,
                               pts_eigenvalues)
from tests.oracles import monras
from tests.oracles.general import regaussify, swap
from tests.oracles.routes import bifreq_received_constructive

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


def log_negativity(cm):
    return log_negativity_from_nu(pts_eigenvalues(cm)[0])


def link_cm(p, length, geometry):
    ch = channel.AirChannel(p["mu"], length, p["n_th"], p["eta_ant"])
    return channel.lossy_tmst(ch, p["r"], p["n"], geometry)


def swapped_cm(p, length):
    """General swap of two L/2 links; Charlie measures their lossy modes."""
    lossy, kept, gamma = link_cm(p, length / 2.0, "asym").standard_params()
    return swap(BipartiteCM.standard_form(kept, lossy, gamma, check=False),
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
        table = cli.COMMANDS["channel"]["table"](dict(p, L=GRID.values()))
        check_columns(table, oracle_table(rows),
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
                         "fidelity": teleport.fidelity_concatenated(out, 1),
                         "theta": theta_of(out), "valid": 1.0})
        table = cli.COMMANDS["swap"]["table"](dict(p, L=GRID.values()))
        check_columns(table, oracle_table(rows), absolute=("negativity", "theta"))
        assert table["valid"].dtype.kind == "i"


def fidelity_oracle(kind, p, length):
    res = teleport.TeleportResource(kind, p["r"], p["n"], p["mu"], p["n_th"],
                                    p["eta_ant"], p["tau"], p["inv_gain"])
    gain = 1.0 / p["inv_gain"]
    if kind == "swap":
        return teleport.fidelity_concatenated(swapped_cm(p, length), 1)
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
    return teleport.fidelity_concatenated(cm, 1)


@pytest.mark.parametrize("kind", teleport.TeleportResource.KINDS)
def test_teleport_columns(kind):
    geometry = teleport.TeleportResource(kind, 1.0, 0.0, 0.0, 0.0,
                                         inv_gain=1.0).geometry
    for p in draws(4, seed=11):
        rows = []
        for length in GRID.values():
            f = fidelity_oracle(kind, p, length)
            fb = teleport.fidelity_concatenated(link_cm(p, length, geometry), 1)
            rows.append({"L": length, "fidelity": f, "fidelity_bare": fb,
                         "gain": f - fb})
        table = cli.COMMANDS["teleport"]["table"](dict(p, resource=kind, L=GRID.values()))
        check_columns(table, oracle_table(rows), absolute=("gain",))


@pytest.mark.parametrize("geometry", ["asym", "sym"])
def test_distill_columns(geometry):
    for p in draws(6, seed=21):
        rows = []
        for length in GRID.values():
            cm = link_cm(p, length, geometry)
            out = distill.ps2_gaussian(cm, p["tau"])
            rg_p = regaussify(out.cm, out.g, geometry)[0]
            rg_h = regaussify(cm, distill.ps2_heuristic(cm).h, geometry)[0]
            rows.append({"L": length, "e_n_bare": log_negativity(cm),
                         "n_bare": negativity(cm), "p2": out.probability,
                         "n_prob": negativity(rg_p), "n_heur": negativity(rg_h),
                         "e_n_prob": log_negativity(rg_p),
                         "e_n_heur": log_negativity(rg_h),
                         "theta_prob": theta_of(rg_p), "theta_heur": theta_of(rg_h)})
        inputs = dict(p, geometry=geometry, L=GRID.values())
        check_columns(cli.COMMANDS["distill"]["table"](inputs), oracle_table(rows),
                      absolute=("e_n_bare", "n_bare", "n_prob", "n_heur", "e_n_prob",
                                "e_n_heur", "theta_prob", "theta_heur"))


def test_corrections_match_the_matrix_route():
    """1 + h and 1 + g over the grid: h and g cross zero inside the sweeps."""
    for p in draws(8, seed=31):
        for geometry in ("asym", "sym"):
            bare = channel.tmst_params(p["mu"], GRID.values(), p["n_th"], p["eta_ant"],
                                       p["r"], p["n"], geometry)
            tilde = distill.ps2_standard_form(*bare, p["tau"])[:3]
            factor_h = distill.heuristic_factor(*bare)
            factor_g = distill.heuristic_factor(*tilde)
            for i, length in enumerate(GRID.values()):
                cm = link_cm(p, length, geometry)
                assert factor_h[i] == pytest.approx(1.0 + distill.ps2_heuristic(cm).h,
                                                    rel=RTOL)
                assert factor_g[i] == pytest.approx(
                    1.0 + distill.ps2_gaussian(cm, p["tau"]).g, rel=RTOL)


# -- the parameter sweeps: the default grid and one sweep of each other variable

def sweeps(name, others):
    """(parameters with the grid set, swept key) of a command's default
    sweep and of each (variable, start, stop, count) in others."""
    defaults = cli._resolve_params(cli.build_parser().parse_args([name]), pytest.fail)
    entry = cli.COMMANDS[name]
    specs = [entry["default"]] + [cli.SweepSpec(entry["sweeps"][var], *grid)
                                  for var, *grid in others]
    return [(dict(defaults, **{spec.variable: spec.values()}), spec.variable)
            for spec in specs]


def check_points(name, others, row):
    """Each column of the table against row(point) at each grid point."""
    for x, key in sweeps(name, others):
        table = cli.COMMANDS[name]["table"](x)
        rows = [row(dict(x, **{key: value})) for value in x[key].tolist()]
        assert list(table) == list(rows[0])
        for column in table:
            expected = np.array([r[column] for r in rows], dtype=float)
            got = np.broadcast_to(table[column], expected.shape)
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0,
                                       equal_nan=True, err_msg=column)


def test_negativity_columns():
    def row(x):
        r, tau = x["r"], x["tau"]
        if r == 0.0:
            return dict(r=r, ok=0, **dict.fromkeys(
                ("n_tmsv", "dn_2ps_heur", "dn_2ps_prob", "dn_4ps_heur",
                 "dn_4ps_prob", "p2", "p4"), np.nan))
        lam = np.tanh(r)
        ps2, ps4 = distill.PsTmsv(lam, tau, 1), distill.PsTmsv(lam, tau, 2)
        base = distill.tmsv_negativity(lam)
        return dict(r=r, ok=1, n_tmsv=base,
                    dn_2ps_heur=distill.heuristic_negativity(lam, 1) - base,
                    dn_2ps_prob=ps2.negativity() - base,
                    dn_4ps_heur=distill.heuristic_negativity(lam, 2) - base,
                    dn_4ps_prob=ps4.negativity() - base,
                    p2=ps2.success_probability(), p4=ps4.success_probability())
    check_points("negativity", [("r", 2.0, 6.0, 5)], row)


def test_illum_columns():
    def row(x):
        p = illumination.QiParams(x["n_s"], x["n_th_bath"], x["gamma"], 0.0)
        nu = illumination.probe_nu_minus(x["n_s"], x["n_th_bath"])
        return dict(n_s=x["n_s"], n_th=x["n_th_bath"], gamma=x["gamma"],
                    h_c=illumination.h_c(p), gain=illumination.gain(p),
                    h_q=illumination.h_q(p), nu_minus=nu,
                    log_neg=entanglement.log_negativity_from_nu(nu))
    check_points("illum", [("n_th", 0.1, 5.0, 11), ("gamma", 0.0, 5.0, 11)], row)


def h_q_constructive(p):
    """The Monras oracle's QFI of the received state built from the probe,
    with h_q_bifreq's derivatives."""
    family = monras.matrix_family(bifreq.received_family(p))
    state = bifreq_received_constructive(p).to_state()
    return monras.gaussian_qfi(monras.MatrixFamily(state, family.dsigma, family.dd,
                                                   family.lambda0))


def test_bifreq_columns():
    def row(x):
        p = bifreq.BifreqParams(x["eta1"], 0.0, x["n_s"], x["n_signal"],
                                x["n_th_bath"])
        h_c, h_q = bifreq.h_c_bifreq(p), h_q_constructive(p)
        c = monras.optimal_observable_numeric(p)
        # l0 from the moments of the constructive received state
        cm = bifreq_received_constructive(p)
        occ1 = (np.trace(cm.sigma_a) / 2.0 - 1.0) / 2.0
        occ2 = (np.trace(cm.sigma_b) / 2.0 - 1.0) / 2.0
        cross = (cm.eps[0, 0] - cm.eps[1, 1]) / 4.0
        return dict(eta1=x["eta1"], n_s=p.n_s, n_th=x["n_th_bath"], h_c=h_c,
                    h_q=h_q, ratio=h_q / h_c, l11=c.l11, l22=c.l22, l12=c.l12,
                    l0=-(c.l11 * occ1 + c.l22 * occ2 + 2.0 * c.l12 * cross),
                    qcrb_gap=2.0 * p.n_s ** 2 * c.l12 * (1.0 + p.n_s) * h_q - 1.0)
    check_points("bifreq", [("eta1", 0.1, 0.99, 11), ("n", 0.0, 5.0, 11),
                            ("n_th", 0.1, 5.0, 11)], row)


def test_satellite_columns():
    def row(x):
        d, w0 = x["d"], x["w0"]
        geom = channel.LinkGeometry(nu=x["nu"], d=d, a=2.0 * w0, e_a=1.0,
                                    w0=w0, a_r=x["a_r"])
        return dict(d=d, fspl_db=channel.fspl(x["nu"], d),
                    tau_path=channel.tau_path(geom),
                    tau_diff=channel.tau_diffraction(geom))
    check_points("satellite", [("d", 100.0, 1e5, 7)], row)


def test_bifreq_received_matches_the_constructive_route():
    rng = np.random.default_rng(41)
    for eta1 in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0):
        for lam in (0.0, -0.5 * eta1, 0.5 * (1.0 - eta1)):
            n_r, n, n_th = rng.uniform([0.0, 0.0, 0.0], [3.0, 0.5, 5.0])
            for p in (bifreq.BifreqParams(eta1, lam, n_r, n, n_th),
                      bifreq.BifreqParams(eta1, lam, n_r, 0.0, 0.0)):
                np.testing.assert_allclose(
                    bifreq.bifreq_received(p).matrix,
                    bifreq_received_constructive(p).matrix, rtol=1e-13, atol=0.0)
