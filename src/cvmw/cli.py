"""Command-line front end: parameter sweeps and headline-number checks.

Subcommands produce CSV or JSON tables from deterministic computations;
`summary` evaluates the headline anchors against stored tolerances and
exits with status 3 when any of them fails.

Exit codes: 0 ok, 1 usage error, 2 computation error, 3 anchor failure.
"""

import argparse
import functools
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
        if not np.isfinite([self.start, self.stop]).all():
            raise ValueError("sweep bounds must be finite")
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


def _table_text(args, note, columns):
    """CSV or JSON text of {name: array or scalar}, broadcast to one length;
    floats keep 17 significant digits, no CSV cell needs quoting, and a
    non-finite JSON cell is null."""
    names = list(columns)
    arrays = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
    if args.format == "json":
        cells = [np.where(np.isfinite(col), col, None) if col.dtype.kind == "f"
                 else col for col in arrays]
        rows = [dict(zip(names, row)) for row in zip(*(col.tolist() for col in cells))]
        report = _report(args, note, columns=names, rows=rows)
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    data = [col.tolist() for col in arrays]
    line = ",".join("%.17g" if col.dtype.kind == "f" else "%s"
                    for col in arrays) + "\n"
    return ",".join(names) + "\n" + "".join([line % row for row in zip(*data)])


# key: (default, domain, meaning). The table1 defaults are channel.TABLE1's;
# a_r, given as None, defaults to 2 w0.
T1 = channel.TABLE1
PARAMS = {
    "mu": (T1["mu"], "[0, inf)", "attenuation density, 1/m"),
    "n_th": (T1["n_th"], "[0, inf)", "environment thermal photons"),
    "temperature": (T1["temperature"], "(0, inf)", "environment temperature, K"),
    "r": (T1["r"], "[0, inf)", "squeezing parameter of the source"),
    "n": (T1["n"], "[0, inf)", "source thermal photons"),
    "tau": (T1["tau"], "(0, 1]", "subtraction beam-splitter transmissivity"),
    "eta_ant": (T1["eta_ant"], "[0, 1]", "antenna reflectivity"),
    "nu": (T1["nu"], "(0, inf)", "carrier frequency, Hz"),
    "inv_gain": (T1["inv_gain"], "[0, inf)", "1/G of the finite-gain homodyne"),
    "L": (0.0, "[0, inf)", "distance of the lossy-tmst states, m"),
    "n_s": (1.0, "(0, inf)", "probe signal photons (illum, bifreq)"),
    "n_th_bath": (1.0, "(0, inf)", "target bath photons (illum, bifreq)"),
    "gamma": (0.0, "[0, inf)", "illumination absorption exponent mu L"),
    "eta1": (0.9, "[0, 1]", "bi-frequency reference reflectivity"),
    "n_signal": (0.0, "[0, inf)", "bi-frequency input thermal photons"),
    "w0": (5.0, "(0, inf)", "initial beam spot size, m"),
    "a_r": (None, "(0, inf)", "receiver aperture radius, m; 2 w0 if unset"),
    "n_modes": (1, "[1, inf)", "modes of the vacuum and thermal states"),
    "alpha_re": (0.0, "(-inf, inf)", "coherent amplitude, real part"),
    "alpha_im": (0.0, "(-inf, inf)", "coherent amplitude, imaginary part"),
}


def _check(key, value):
    """Raise ValueError unless value lies in the key's domain; NaN never does."""
    domain = PARAMS[key][1]
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    if not ((lo <= value if domain[0] == "[" else lo < value)
            and (value <= hi if domain[-1] == "]" else value < hi)):
        raise ValueError("%s = %g lies outside its domain %s" % (key, value, domain))


def _resolve_params(args, usage_error):
    """The table defaults, then the preset or profile, then each --set; the
    defaults lie in their domains, and every value given is checked."""
    given = []
    if args.preset:
        given += (channel.PRESETS[args.preset] if args.preset in channel.PRESETS
                  else channel.load_profile(args.preset)).items()
    for item in args.set or []:
        if "=" not in item:
            usage_error("--set expects key=value, got %r" % item)
        key, value = item.split("=", 1)
        given.append((key.strip(), value))
    params = {key: entry[0] for key, entry in PARAMS.items()}
    for key, value in given:
        if key not in PARAMS:
            import difflib
            near = difflib.get_close_matches(key, PARAMS, n=1)
            usage_error("unknown parameter %r%s" % (
                key, "; did you mean %r?" % near[0] if near else ""))
        try:
            params[key] = float(value)
        except ValueError:
            usage_error("--set %s: %r is not a number" % (key, value))
        _check(key, params[key])
    if params["a_r"] is None:
        params["a_r"] = 2.0 * params["w0"]
        _check("a_r", params["a_r"])
    return params


# -- table functions: the parameters, the swept one set to its grid ---------
#
# Each table is one array call over the grid and returns its columns; a
# column that does not vary is a scalar, broadcast when the table is written.
# A point that fails raises, and the command exits 2.

def _negativity_table(x):
    r, lam = x["r"], np.tanh(x["r"])
    # PsTmsv rejects tanh r = 1 before tmsv_negativity divides by zero
    ps2, ps4 = distill.PsTmsv(lam, x["tau"], 1), distill.PsTmsv(lam, x["tau"], 2)
    base = distill.tmsv_negativity(lam)
    columns = dict(n_tmsv=base,
                   dn_2ps_heur=distill.heuristic_negativity(lam, 1) - base,
                   dn_2ps_prob=ps2.negativity() - base,
                   dn_4ps_heur=distill.heuristic_negativity(lam, 2) - base,
                   dn_4ps_prob=ps4.negativity() - base,
                   p2=ps2.success_probability(), p4=ps4.success_probability())
    ok = r > 0.0  # no squeezing, nothing to distill: ok = 0 and NaN cells
    return dict({"r": r, "ok": np.where(ok, 1, 0)},
                **{name: np.where(ok, col, np.nan) for name, col in columns.items()})


def _illum_table(x):
    p = illumination.QiParams(x["n_s"], x["n_th_bath"], x["gamma"], 0.0)
    nu_minus = illumination.probe_nu_minus(p.n_s, p.n_th)
    return {"n_s": p.n_s, "n_th": p.n_th, "gamma": p.gamma,
            "h_c": illumination.h_c(p), "gain": illumination.gain(p),
            "h_q": illumination.h_q(p), "nu_minus": nu_minus,
            "log_neg": entanglement.log_negativity_from_nu(nu_minus)}


def _bifreq_table(x):
    p = bifreq.BifreqParams(x["eta1"], 0.0, x["n_s"], x["n_signal"], x["n_th_bath"])
    h_c, h_q = bifreq.h_c_bifreq(p), bifreq.h_q_bifreq(p)
    coeffs = bifreq.optimal_coeffs(p)
    return {"eta1": p.eta1, "n_s": p.n_s, "n_th": p.n_th, "h_c": h_c,
            "h_q": h_q, "ratio": h_q / h_c, "l11": coeffs.l11, "l22": coeffs.l22,
            "l12": coeffs.l12, "l0": coeffs.l0,
            "qcrb_gap": bifreq.variance_formula(p) * h_q - 1.0}


def _satellite_table(x):
    d, w0 = x["d"], x["w0"]
    geom = channel.LinkGeometry(nu=x["nu"], d=d, a=2.0 * w0, e_a=1.0,
                                w0=w0, a_r=x["a_r"], r0=d)
    return {"d": d, "fspl_db": channel.fspl(x["nu"], d)[1],
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


def _qfi_table(x):
    if x["family"].startswith("illum"):
        p = illumination.QiParams(x["n_s"], x["n_th_bath"], x["gamma"], 1e-4)
    else:
        p = bifreq.BifreqParams(x["eta1"], 0.0, x["n_s"], 0.0, x["n_th_bath"])
    h, closed = QFI_FAMILIES[x["family"]](p)
    return {"family": x["family"], "n_s": x["n_s"], "n_th": x["n_th_bath"],
            "gamma": x["gamma"], "eta1": x["eta1"], "h_numeric": h,
            "h_closed": closed}


def _link_params(x, length, geometry):
    ch = channel.AirChannel(x["mu"], length, x["n_th"], x["eta_ant"])
    return channel.lossy_tmst_params(ch, x["r"], x["n"], geometry)


def _teleport_table(x):
    L = x["L"]
    link = (x["r"], x["n"], x["mu"], x["n_th"], x["eta_ant"])
    resource = teleport.TeleportResource(x["resource"], *link, x["tau"],
                                         x["inv_gain"])
    f = resource.fidelity(L)
    fb = teleport.TeleportResource("tmst-" + resource.geometry, *link).fidelity(L)
    return {"L": L, "fidelity": f, "fidelity_bare": fb, "gain": f - fb}


def _distill_table(x):
    geometry = x["geometry"]
    bare = _link_params(x, x["L"], geometry)
    *tilde, prob = distill.ps2_standard_form(*bare, x["tau"])
    nu_bare = entanglement.nu_minus_standard(*bare)
    # g of ps2_gaussian is h at the subtracted triple
    rg = {tag: teleport.regaussify_standard(
              *triple, distill.heuristic_correction(*triple), geometry)
          for tag, triple in (("prob", tilde), ("heur", bare))}
    nu = {tag: entanglement.nu_minus_standard(*triple) for tag, triple in rg.items()}
    return {"L": x["L"], "e_n_bare": entanglement.log_negativity_from_nu(nu_bare),
            "n_bare": entanglement.negativity_from_nu(nu_bare), "p2": prob,
            "n_prob": entanglement.negativity_from_nu(nu["prob"]),
            "n_heur": entanglement.negativity_from_nu(nu["heur"]),
            "e_n_prob": entanglement.log_negativity_from_nu(nu["prob"]),
            "e_n_heur": entanglement.log_negativity_from_nu(nu["heur"]),
            "theta_prob": entanglement.cm_validity(*rg["prob"])[0],
            "theta_heur": entanglement.cm_validity(*rg["heur"])[0]}


def _swap_table(x):
    # Charlie measures the lossy modes: alpha is the retained block of a link
    beta, alpha, gamma = _link_params(x, x["L"] / 2.0, "asym")
    alpha_t, gamma_t = distill.swap_symmetric(alpha, beta, gamma)
    nu = entanglement.nu_minus_standard(alpha_t, alpha_t, gamma_t)
    theta, valid = entanglement.cm_validity(alpha_t, alpha_t, gamma_t)
    return {"L": x["L"], "alpha": alpha, "beta": beta, "gamma": gamma,
            "alpha_swap": alpha_t, "gamma_swap": gamma_t, "nu_minus": nu,
            "negativity": entanglement.negativity_from_nu(nu),
            "fidelity": teleport.fidelity_swapped(alpha, beta, gamma),
            "theta": theta, "valid": valid.astype(int)}


def _channel_table(x):
    ch = channel.AirChannel(x["mu"], x["L"], x["n_th"], x["eta_ant"])
    columns = {"L": x["L"]}
    for geometry in ("asym", "sym"):
        nu = entanglement.nu_minus_standard(
            *channel.lossy_tmst_params(ch, x["r"], x["n"], geometry))
        columns["nu_minus_" + geometry] = nu
        columns["log_neg_" + geometry] = entanglement.log_negativity_from_nu(nu)
    columns["eta_env"] = channel.eta_env(ch)
    return columns


# -- the subcommand table ----------------------------------------------------

# name -> table function, sweep variable -> the parameter it sets, default
# sweep (None: one row, no sweep) and provenance; the note may name {var}
# and {args}.
COMMANDS = {
    "negativity": dict(
        table=_negativity_table,
        sweeps={"r": "r"}, default=SweepSpec("r", 0.0, 1.5, 61),
        note="negativity of photon-subtracted vs bare two-mode squeezed "
             "vacuum, with success probabilities"),
    "illum": dict(
        table=_illum_table,
        sweeps={"n_s": "n_s", "n_th": "n_th_bath", "gamma": "gamma"},
        default=SweepSpec("n_s", 0.01, 5.0, 100),
        note="illumination gain and Fisher informations vs {var}"),
    "bifreq": dict(
        table=_bifreq_table,
        sweeps={"eta1": "eta1", "n_s": "n_s", "n": "n_signal", "n_th": "n_th_bath"},
        default=SweepSpec("n_s", 0.2, 5.0, 25),
        note="bi-frequency enhancement ratio and observable coefficients "
             "vs {var}"),
    "swap": dict(
        table=_swap_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 600.0, 121),
        note="entanglement-swapped resource vs distance"),
    "channel": dict(
        table=_channel_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 600.0, 121),
        note="distributed-state entanglement vs distance"),
    "satellite": dict(
        table=_satellite_table,
        sweeps={"d": "d"}, default=SweepSpec("d", 10.0, 1e7, 61, log=True),
        note="free-space path loss and diffraction transmissivity vs distance"),
    "qfi": dict(
        table=_qfi_table,
        sweeps={}, default=None,
        note="quantum Fisher information of the selected family"),
    "teleport": dict(
        table=_teleport_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 600.0, 121),
        note="average teleportation fidelity vs distance, resource "
             "{args.resource}"),
    "distill": dict(
        table=_distill_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 500.0, 101),
        note="re-Gaussified photon-subtraction negativities vs distance "
             "({args.geometry} geometry)"),
}


def _cmd_table(args):
    entry = COMMANDS[args.command]
    spec = entry["default"]
    var = args.sweep[0] if args.sweep else spec and spec.variable
    if args.sweep:
        _, start, stop, count = args.sweep
        spec = SweepSpec(entry["sweeps"][var], float(start), float(stop),
                         int(float(count)), log=args.log)
    x = dict(args.params)
    if spec:
        if spec.variable in PARAMS:  # a monotone grid: its ends bound it
            _check(spec.variable, spec.start)
            _check(spec.variable, spec.stop)
        x[spec.variable] = spec.values()
    if args.command in OPTIONS:
        dest = OPTIONS[args.command][0]
        x[dest] = getattr(args, dest)
    columns = entry["table"](x)
    note = entry["note"].format(var=var, args=args)
    _write(_table_text(args, note, columns), args)
    return 0


def _lossy_tmst_state(p, geometry):
    ch = channel.AirChannel(p["mu"], p["L"], p["n_th"], p["eta_ant"])
    return channel.lossy_tmst(ch, p["r"], p["n"], geometry).to_state()


STATES = {
    "vacuum": lambda p: core.vacuum(int(p["n_modes"])),
    "thermal": lambda p: core.thermal(int(p["n_modes"]), p["n_th"]),
    "coherent": lambda p: core.coherent(p["alpha_re"], p["alpha_im"]),
    "tmsv": lambda p: core.tmsv(p["r"]),
    "tmst": lambda p: core.tmst(p["r"], p["n"]),
    "qi-probe": lambda p: illumination.qi_probe(p["n_s"], p["n_th"]),
    "bifreq-probe": lambda p: bifreq.bifreq_probe(bifreq.BifreqParams(
        p["eta1"], 0.0, p["n_s"], p["n"], p["n_th"])),
    "lossy-tmst-asym": lambda p: _lossy_tmst_state(p, "asym"),
    "lossy-tmst-sym": lambda p: _lossy_tmst_state(p, "sym"),
}


def _cmd_state(args):
    if args.kind not in STATES:
        raise ValueError("unknown state kind %r" % args.kind)
    state = STATES[args.kind](args.params)
    state.validate()
    _write(state.to_json() + "\n", args)
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

    def fail(name, target, tol, reason):
        out.append({"name": name, "value": None, "target": target,
                    "tolerance": tol, "pass": False, "reason": reason})

    add("reach_asym_m", channel.l_max(ch0, p["r"], p["n"], "asym"), 550.0, 5.0)
    add("reach_sym_m", channel.l_max(ch0, p["r"], p["n"], "sym"), 480.0, 5.0)
    add("classical_limit_asym_m", limit("tmst-asym"), 479.0, 1.0)
    add("classical_limit_sym_m", limit("tmst-sym"), 479.0, 1.0)
    add("classical_limit_fg_asym_m", limit("tmst-asym-fg"), 434.0, 1.0)
    add("classical_limit_fg_sym_m", limit("tmst-sym-fg"), 429.0, 1.0)
    add("classical_limit_fg_swap_m", limit("swap-fg"), 416.0, 1.0)
    # row 0 of a distill sweep from L = 0 is the source
    at_source = _distill_table(dict(p, geometry="sym", L=np.zeros(1)))
    n_bare = at_source["n_bare"][0]
    for name, tag, target in (("heuristic", "heur", 46.0),
                              ("probabilistic", "prob", 28.0)):
        if n_bare > 0.0:
            add("distill_gain_%s_pct" % name,
                100.0 * (at_source["n_" + tag][0] / n_bare - 1.0), target, 1.0)
        else:
            fail("distill_gain_%s_pct" % name, target, 1.0,
                 "the symmetric source state is not entangled")
    bare_limit = limit("tmst-asym")
    if bare_limit > 0.0:
        add("swap_reach_extension_pct",
            100.0 * (limit("swap") / bare_limit - 1.0), 14.0, 1.0)
    else:
        fail("swap_reach_extension_pct", 14.0, 1.0, "the tmst-asym classical "
             "limit is 0: its fidelity is at most 1/2 at the source")
    add("qi_gain_3db_limit",
        illumination.gain(illumination.QiParams(1e-4, 1e4)), 2.0, 1e-3)
    add("bifreq_ratio_limit", bifreq.high_reflectivity_ratio(2.9, 1e3), 6.34, 0.1)
    add("bifreq_ratio_numeric",
        bifreq.ratio(bifreq.BifreqParams(1.0 - 1e-8, 0.0, 2.9, 0.0, 1e3)),
        6.34, 0.1)
    add("thermal_photons_300k", channel.bose_einstein(p["nu"], p["temperature"]),
        1250.0, 1.0)
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
    _write(json.dumps(report, indent=2, allow_nan=False) + "\n", args)
    return 0 if all_pass else ANCHOR_FAILURE


# subcommand -> its own option, added ahead of the common ones; a table
# function finds its value under the option's name
OPTIONS = {
    "state": ("kind", {"required": True}),
    "qfi": ("family", {"default": "illum", "choices": tuple(QFI_FAMILIES)}),
    "teleport": ("resource", {"default": "tmst-asym",
                              "choices": teleport.TeleportResource.KINDS}),
    "distill": ("geometry", {"default": "sym", "choices": ("asym", "sym")}),
}
HELP = {"state": "construct a state and print its JSON",
        "qfi": "numeric QFI of a named received family",
        "summary": "verify headline anchors"}


@functools.cache
def build_parser():
    parser = _Parser(prog="cvmw",
                     description="Gaussian microwave quantum-link toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = "parameters (--set KEY=VALUE):\n" + "\n".join(
        "  %-11s %-9s %-12s %s" % (key, "2 w0" if value is None else "%g" % value,
                                   domain, meaning)
        for key, (value, domain, meaning) in PARAMS.items())
    handlers = ([("state", _cmd_state)] + [(name, _cmd_table) for name in COMMANDS]
                + [("summary", _cmd_summary)])
    for name, func in handlers:
        sp = sub.add_parser(name, epilog=epilog,
                            formatter_class=argparse.RawDescriptionHelpFormatter,
                            **({"help": HELP[name]} if name in HELP else {}))
        if name in OPTIONS:
            dest, kwargs = OPTIONS[name]
            sp.add_argument("--" + dest, **kwargs)
        sp.add_argument("--preset", default=None,
                        help="named preset (table1) or profile file path")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a parameter")
        sp.add_argument("--out", default=None, help="output file")
        if func is _cmd_table:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
            sp.add_argument("--jobs", type=int, default=1,
                            help="accepted for interface compatibility; no effect")
        if COMMANDS.get(name, {}).get("sweeps"):
            sp.add_argument("--sweep", nargs=4, default=None,
                            metavar=("VAR", "START", "STOP", "COUNT"))
            sp.add_argument("--log", action="store_true",
                            help="logarithmic sweep spacing")
        sp.set_defaults(func=func, sweep=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        allowed = COMMANDS.get(args.command, {}).get("sweeps", ())
        if args.sweep and args.sweep[0] not in allowed:
            parser.error("%s cannot sweep %s" % (args.command, args.sweep[0]))
        args.params = _resolve_params(args, parser.error)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    except (ValueError, RuntimeError, OSError, KeyError, ArithmeticError) as exc:
        sys.stderr.write("computation error: %s\n" % exc)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
