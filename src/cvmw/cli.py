"""Command-line front end: parameter sweeps and headline-number checks.

Subcommands produce CSV or JSON tables from deterministic computations;
`summary` evaluates the headline anchors against stored tolerances and
exits with status 3 when any of them fails.

Exit codes: 0 ok, 1 usage error, 2 computation error, 3 anchor failure.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bifreq, channel, core, distill, entanglement, illumination, teleport
from .estimation import gaussian_qfi

USAGE_ERROR, COMPUTE_ERROR, ANCHOR_FAILURE = 1, 2, 3


@dataclass
class SweepSpec:
    variable: str
    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("sweep count must be at least 2")
        if not self.start < self.stop:
            raise ValueError("sweep start must be below stop")

    def values(self):
        if self.log:
            if self.start <= 0:
                raise ValueError("log sweeps need a positive start")
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_ERROR)


def _write(text, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, note, **body):
    return dict({"command": " ".join(sys.argv[1:]),
                 "parameters": {k: args.params[k] for k in sorted(args.params)},
                 "provenance": note}, **body)


def _table_text(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, default=float) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report["columns"])
    for row in report["rows"]:
        values = (row[c] for c in report["columns"])
        writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in values])
    return buf.getvalue()


def _resolve_params(args):
    params = dict(channel.TABLE1)
    if args.preset:
        params.update(channel.PRESETS[args.preset] if args.preset in channel.PRESETS
                      else channel.load_profile(args.preset))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError("--set expects key=value, got %r" % item)
        key, value = item.split("=", 1)
        params[key.strip()] = float(value)
    args.params = params


# -- row functions: one dict of inputs, the swept value already set ---------

def _negativity_row(x):
    r, tau = x["r"], x["tau"]
    row = {"r": r, "ok": int(r > 0.0)}
    if r <= 0.0:
        return dict(row, **dict.fromkeys(("n_tmsv", "dn_2ps_heur", "dn_2ps_prob",
                                          "dn_4ps_heur", "dn_4ps_prob", "p2",
                                          "p4"), float("nan")))
    lam = np.tanh(r)
    base = distill.tmsv_negativity(lam)
    ps2, ps4 = distill.PsTmsv(lam, tau, 1), distill.PsTmsv(lam, tau, 2)
    return dict(row, n_tmsv=base,
                dn_2ps_heur=distill.heuristic_negativity(lam, 1) - base,
                dn_2ps_prob=ps2.negativity() - base,
                dn_4ps_heur=distill.heuristic_negativity(lam, 2) - base,
                dn_4ps_prob=ps4.negativity() - base,
                p2=ps2.success_probability(), p4=ps4.success_probability())


def _illum_row(x):
    n_s, n_th, gamma = x["n_s"], x["n_th"], x["gamma"]
    p = illumination.QiParams(n_s, n_th, gamma, 0.0)
    nu_minus = illumination.probe_nu_minus(n_s, n_th)
    return {"n_s": n_s, "n_th": n_th, "gamma": gamma,
            "h_c": illumination.h_c(p), "gain": illumination.gain(p),
            "h_q": illumination.h_q(p) if n_th > 0 else float("nan"),
            "nu_minus": nu_minus, "log_neg": (max(0.0, -np.log2(nu_minus))
                                              if nu_minus > 0 else float("inf"))}


def _bifreq_row(x):
    p = bifreq.BifreqParams(x["eta1"], 0.0, x["n_s"], x["n"], x["n_th"])
    row = {"eta1": x["eta1"], "n_s": p.n_s, "n_th": x["n_th"],
           "h_c": bifreq.h_c_bifreq(p)}
    try:
        row["h_q"] = bifreq.h_q_bifreq(p)
        row["ratio"] = row["h_q"] / row["h_c"]
    except Exception:
        row["h_q"] = row["ratio"] = float("nan")
    try:
        coeffs = bifreq.optimal_coeffs(p)
        row.update({"l11": coeffs.l11, "l22": coeffs.l22,
                    "l12": coeffs.l12, "l0": coeffs.l0})
        row["qcrb_gap"] = bifreq.variance_formula(p) * row["h_q"] - 1.0
    except ValueError:
        row.update(dict.fromkeys(("l11", "l22", "l12", "l0", "qcrb_gap"),
                                 float("nan")))
    return row


def _teleport_row(x):
    f = x["resource"].fidelity(x["L"])
    fb = x["bare"].fidelity(x["L"])
    return {"L": x["L"], "fidelity": f, "fidelity_bare": fb, "gain": f - fb}


def _distill_row(x):
    geometry = x["geometry"]
    ch = channel.AirChannel(x["mu"], x["L"], x["n_th"], x["eta_ant"])
    cm = channel.lossy_tmst(ch, x["r"], x["n"], geometry)
    out = distill.ps2_gaussian(cm, x["tau"])
    rg_p, th_p, _ = teleport.regaussify(out.cm(check=False), out.g, geometry)
    rg_h, th_h, _ = teleport.regaussify(cm, distill.ps2_heuristic(cm).h, geometry)
    return {"L": x["L"], "e_n_bare": entanglement.log_negativity(cm),
            "n_bare": entanglement.negativity(cm), "p2": out.probability,
            "n_prob": entanglement.negativity(rg_p),
            "n_heur": entanglement.negativity(rg_h),
            "e_n_prob": entanglement.log_negativity(rg_p),
            "e_n_heur": entanglement.log_negativity(rg_h),
            "theta_prob": th_p, "theta_heur": th_h}


def _swap_row(x):
    ch = channel.AirChannel(x["mu"], x["L"] / 2.0, x["n_th"], x["eta_ant"])
    link = channel.lossy_tmst(ch, x["r"], x["n"], "asym")
    alpha, beta, gamma = link.sigma_b[0, 0], link.sigma_a[0, 0], link.eps[0, 0]
    alpha_t, gamma_t = distill.swap_symmetric(alpha, beta, gamma)
    cm = entanglement.BipartiteCM.standard_form(alpha_t, alpha_t, gamma_t,
                                                check=False)
    theta, valid = entanglement.cm_validity(alpha_t, alpha_t, gamma_t)
    return {"L": x["L"], "alpha": alpha, "beta": beta, "gamma": gamma,
            "alpha_swap": alpha_t, "gamma_swap": gamma_t,
            "nu_minus": entanglement.pts_eigenvalues(cm)[0],
            "negativity": entanglement.negativity(cm),
            "fidelity": teleport.fidelity_swapped(alpha, beta, gamma),
            "theta": theta, "valid": int(valid)}


def _channel_row(x):
    ch = channel.AirChannel(x["mu"], x["L"], x["n_th"], x["eta_ant"])
    row = {"L": x["L"]}
    for geometry in ("asym", "sym"):
        cm = channel.lossy_tmst(ch, x["r"], x["n"], geometry)
        row["nu_minus_" + geometry] = entanglement.pts_eigenvalues(cm)[0]
        row["log_neg_" + geometry] = entanglement.log_negativity(cm)
    row["eta_env"] = channel.eta_env(ch)
    return row


def _satellite_row(x):
    d, nu, w0 = x["d"], x["nu"], x["w0"]
    geom = channel.LinkGeometry(nu=nu, d=d, a=2.0 * w0, e_a=1.0,
                                w0=w0, a_r=x["a_r"], r0=d)
    return {"d": d, "fspl_db": channel.fspl(nu, d)[1],
            "tau_path": channel.tau_path(geom),
            "tau_diff": channel.tau_diffraction(geom)}


# family -> (numeric QFI, closed form) of the received state at parameters p
QFI_FAMILIES = {
    "illum": lambda p: (gaussian_qfi(illumination.received_family(p)),
                        illumination.h_q(p)),
    "illum-classical": lambda p: (
        gaussian_qfi(illumination.classical_received_family(p)),
        illumination.h_c(p)),
    "bifreq": lambda p: (bifreq.h_q_bifreq(p), float("nan")),
    "bifreq-classical": lambda p: (
        gaussian_qfi(bifreq.classical_received_family(p)), bifreq.h_c_bifreq(p)),
}


def _qfi_row(x):
    if x["family"].startswith("illum"):
        p = illumination.QiParams(x["n_s"], x["n_th"], x["gamma"], 1e-4)
    else:
        p = bifreq.BifreqParams(x["eta1"], 0.0, x["n_s"], 0.0, x["n_th"])
    h, closed = QFI_FAMILIES[x["family"]](p)
    return dict(x, h_numeric=h, h_closed=closed)


# -- the subcommand table ----------------------------------------------------

def _link(p, args=None):
    return {key: p[key] for key in ("r", "n", "mu", "n_th", "eta_ant")}


def _teleport_inputs(p, args):
    link = (p["r"], p["n"], p["mu"], p["n_th"], p["eta_ant"])
    resource = teleport.TeleportResource(args.resource, *link, p["tau"],
                                         p.get("inv_gain", 0.008))
    bare = teleport.TeleportResource("tmst-" + resource.geometry, *link)
    return {"resource": resource, "bare": bare}


def _bath(p, args=None):
    return {"n_s": p.get("n_s", 1.0), "n_th": p.get("n_th_bath", 1.0),
            "gamma": p.get("gamma", 0.0)}


# name -> row function, inputs(params, args), sweep variables, default sweep
# (None: one row, no sweep) and provenance; the note may name {var} and {args}.
COMMANDS = {
    "negativity": dict(
        row=_negativity_row, inputs=lambda p, args: {"tau": p["tau"]},
        sweeps=("r",), default=SweepSpec("r", 0.0, 1.5, 61),
        note="negativity of photon-subtracted vs bare two-mode squeezed "
             "vacuum, with success probabilities"),
    "illum": dict(
        row=_illum_row, inputs=_bath,
        sweeps=("n_s", "n_th", "gamma"), default=SweepSpec("n_s", 0.01, 5.0, 100),
        note="illumination gain and Fisher informations vs {var}"),
    "bifreq": dict(
        row=_bifreq_row,
        inputs=lambda p, args: dict(_bath(p), eta1=p.get("eta1", 0.9),
                                    n=p.get("n_signal", 0.0)),
        sweeps=("eta1", "n_s", "n", "n_th"), default=SweepSpec("n_s", 0.2, 5.0, 25),
        note="bi-frequency enhancement ratio and observable coefficients "
             "vs {var}"),
    "swap": dict(
        row=_swap_row, inputs=_link,
        sweeps=("L",), default=SweepSpec("L", 0.0, 600.0, 121),
        note="entanglement-swapped resource vs distance"),
    "channel": dict(
        row=_channel_row, inputs=_link,
        sweeps=("L",), default=SweepSpec("L", 0.0, 600.0, 121),
        note="distributed-state entanglement vs distance"),
    "satellite": dict(
        row=_satellite_row,
        inputs=lambda p, args: {"nu": p["nu"], "w0": p.get("w0", 5.0),
                                "a_r": p.get("a_r", 2.0 * p.get("w0", 5.0))},
        sweeps=("d",), default=SweepSpec("d", 10.0, 1e7, 61, log=True),
        note="free-space path loss and diffraction transmissivity vs distance"),
    "qfi": dict(
        row=_qfi_row,
        inputs=lambda p, args: dict(family=args.family, **_bath(p),
                                    eta1=p.get("eta1", 0.9)),
        sweeps=(), default=None,
        note="quantum Fisher information of the selected family"),
    "teleport": dict(
        row=_teleport_row, inputs=_teleport_inputs,
        sweeps=("L",), default=SweepSpec("L", 0.0, 600.0, 121),
        note="average teleportation fidelity vs distance, resource "
             "{args.resource}"),
    "distill": dict(
        row=_distill_row,
        inputs=lambda p, args: dict(_link(p), geometry=args.geometry,
                                    tau=p["tau"]),
        sweeps=("L",), default=SweepSpec("L", 0.0, 500.0, 101),
        note="re-Gaussified photon-subtraction negativities vs distance "
             "({args.geometry} geometry)"),
}


def _cmd_table(args):
    entry = COMMANDS[args.command]
    inputs = entry["inputs"](args.params, args)
    spec = entry["default"]
    if args.sweep:
        var, start, stop, count = args.sweep
        spec = SweepSpec(var, float(start), float(stop), int(float(count)),
                         log=args.log)
    points = [inputs] if spec is None else [dict(inputs, **{spec.variable: v})
                                            for v in spec.values()]
    rows = [entry["row"](x) for x in points]
    note = entry["note"].format(var=spec.variable if spec else None, args=args)
    report = _report(args, note, columns=list(rows[0]), rows=rows)
    _write(_table_text(report, args.format), args)
    return 0


def _lossy_tmst_state(p, geometry):
    ch = channel.AirChannel(p["mu"], p.get("L", 0.0), p["n_th"],
                            p.get("eta_ant", 0.0))
    return channel.lossy_tmst(ch, p["r"], p["n"], geometry).to_state()


STATES = {
    "vacuum": lambda p: core.vacuum(int(p.get("n_modes", 1))),
    "thermal": lambda p: core.thermal(int(p.get("n_modes", 1)),
                                      p.get("n_th", 0.0)),
    "coherent": lambda p: core.coherent(p.get("alpha_re", 0.0),
                                        p.get("alpha_im", 0.0)),
    "tmsv": lambda p: core.tmsv(p["r"]),
    "tmst": lambda p: core.tmst(p["r"], p["n"]),
    "qi-probe": lambda p: illumination.qi_probe(p.get("n_s", 1.0), p["n_th"]),
    "bifreq-probe": lambda p: bifreq.bifreq_probe(bifreq.BifreqParams(
        p.get("eta1", 0.5), 0.0, p.get("n_r", 1.0), p["n"], p["n_th"])),
    "lossy-tmst-asym": lambda p: _lossy_tmst_state(p, "asym"),
    "lossy-tmst-sym": lambda p: _lossy_tmst_state(p, "sym"),
}


def _cmd_state(args):
    if args.kind not in STATES:
        raise ValueError("unknown state kind %r" % args.kind)
    _write(STATES[args.kind](args.params).to_json() + "\n", args)
    return 0


def _anchors(p):
    """Headline numbers with stored targets and tolerances."""
    ch0 = channel.AirChannel(p["mu"], 0.0, p["n_th"], p["eta_ant"])
    limit = lambda kind: teleport.TeleportResource(
        kind, p["r"], p["n"], p["mu"], p["n_th"], p["eta_ant"], p["tau"],
        p["inv_gain"]).classical_limit_distance()
    out = []

    def add(name, value, target, tol):
        out.append({"name": name, "value": float(value), "target": target,
                    "tolerance": tol, "pass": bool(abs(value - target) <= tol)})

    add("reach_asym_m", channel.l_max(ch0, p["r"], p["n"], "asym"), 550.0, 5.0)
    add("reach_sym_m", channel.l_max(ch0, p["r"], p["n"], "sym"), 480.0, 5.0)
    add("classical_limit_asym_m", limit("tmst-asym"), 479.0, 1.0)
    add("classical_limit_sym_m", limit("tmst-sym"), 479.0, 1.0)
    add("classical_limit_fg_asym_m", limit("tmst-asym-fg"), 434.0, 1.0)
    add("classical_limit_fg_sym_m", limit("tmst-sym-fg"), 429.0, 1.0)
    add("classical_limit_fg_swap_m", limit("swap-fg"), 416.0, 1.0)
    bare = channel.lossy_tmst(ch0, p["r"], p["n"], "sym")
    n_bare = entanglement.negativity(bare)
    rg_h, _, _ = teleport.regaussify(bare, distill.ps2_heuristic(bare).h, "sym")
    add("distill_gain_heuristic_pct",
        100.0 * (entanglement.negativity(rg_h) / n_bare - 1.0), 46.0, 1.0)
    ps = distill.ps2_gaussian(bare, p["tau"])
    rg_p, _, _ = teleport.regaussify(ps.cm(check=False), ps.g, "sym")
    add("distill_gain_probabilistic_pct",
        100.0 * (entanglement.negativity(rg_p) / n_bare - 1.0), 28.0, 1.0)
    add("swap_reach_extension_pct",
        100.0 * (limit("swap") / limit("tmst-asym") - 1.0), 14.0, 1.0)
    add("qi_gain_3db_limit",
        illumination.gain(illumination.QiParams(1e-4, 1e4)), 2.0, 1e-3)
    add("bifreq_ratio_limit", bifreq.high_reflectivity_ratio(2.9, 1e3), 6.34, 0.1)
    add("bifreq_ratio_numeric",
        bifreq.ratio(bifreq.BifreqParams(1.0 - 1e-8, 0.0, 2.9, 0.0, 1e3)),
        6.34, 0.1)
    add("thermal_photons_300k", channel.bose_einstein(p["nu"], 300.0), 1250.0, 1.0)
    add("thermal_photons_2p7k", channel.bose_einstein(p["nu"], 2.7), 11.0, 0.5)
    # threshold anchors are defined at the rounded occupation N_th = 11
    add("sat_eta_threshold_asym", channel.eta_threshold_asym(11.0), 0.0833, 1e-4)
    add("sat_eta_threshold_sym", channel.eta_threshold_sym(11.0, p["r"]),
        0.0378, 1e-3)
    add("sat_aperture_product_m2",
        channel.aperture_product_threshold(0.06, 0.038, 1000.0), 35.0, 1.0)
    return out


def _cmd_summary(args):
    anchors = _anchors(args.params)
    all_pass = all(a["pass"] for a in anchors)
    report = _report(args, "headline-number verification against stored "
                           "tolerances", anchors=anchors, all_pass=all_pass)
    _write(json.dumps(report, indent=2) + "\n", args)
    return 0 if all_pass else ANCHOR_FAILURE


# subcommand -> its own option, added ahead of the common ones
OPTIONS = {
    "state": ("--kind", {"required": True}),
    "qfi": ("--family", {"default": "illum", "choices": tuple(QFI_FAMILIES)}),
    "teleport": ("--resource", {"default": "tmst-asym",
                                "choices": teleport.TeleportResource.KINDS}),
    "distill": ("--geometry", {"default": "sym", "choices": ("asym", "sym")}),
}
HELP = {"state": "construct a state and print its JSON",
        "qfi": "numeric QFI of a named received family",
        "summary": "verify headline anchors"}


def build_parser():
    parser = _Parser(prog="cvmw",
                     description="Gaussian microwave quantum-link toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for interface compatibility; all "
                             "computations are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = ([("state", _cmd_state)] + [(name, _cmd_table) for name in COMMANDS]
                + [("summary", _cmd_summary)])
    for name, func in handlers:
        sp = sub.add_parser(name, **({"help": HELP[name]} if name in HELP else {}))
        if name in OPTIONS:
            flag, kwargs = OPTIONS[name]
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--preset", default=None,
                        help="named preset (table1) or profile file path")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a parameter")
        sp.add_argument("--out", default=None, help="output file")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for interface compatibility; no effect")
        sp.add_argument("--sweep", nargs=4, default=None,
                        metavar=("VAR", "START", "STOP", "COUNT"))
        sp.add_argument("--log", action="store_true",
                        help="logarithmic sweep spacing")
        sp.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        allowed = COMMANDS.get(args.command, {}).get("sweeps", ())
        if args.sweep and args.sweep[0] not in allowed:
            parser.error("%s cannot sweep %s" % (args.command, args.sweep[0]))
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        _resolve_params(args)
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError, ArithmeticError) as exc:
        sys.stderr.write("computation error: %s\n" % exc)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
