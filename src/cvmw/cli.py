"""Command-line front end: parameter sweeps and headline-number checks.

Subcommands produce CSV or JSON tables from deterministic computations;
`summary` evaluates the headline anchors against stored tolerances and
exits with status 3 when any of them fails.

Exit codes: 0 ok, 1 usage error, 2 computation error, 3 anchor failure.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bifreq, channel, core, distill, entanglement, illumination, teleport
from .estimation import gaussian_qfi

USAGE_ERROR, COMPUTE_ERROR, ANCHOR_FAILURE = 1, 2, 3
MAX_SWEEP_COUNT = 10 ** 6  # rows of one sweep; refused above, before any array


@dataclass
class SweepSpec:
    variable: str
    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self):
        if not (self.count >= 2 and float(self.count).is_integer()):
            raise ValueError("sweep count must be a whole number of at least 2, "
                             "got %g" % self.count)
        if self.count > MAX_SWEEP_COUNT:
            raise ValueError("sweep count must be at most %d, got %.15g"
                             % (MAX_SWEEP_COUNT, self.count))
        self.count = int(self.count)
        if not np.isfinite([self.start, self.stop]).all():
            raise ValueError("sweep bounds must be finite")
        if not self.start < self.stop:
            raise ValueError("sweep start must be below stop")

    def values(self):
        """The grid, linear or core.log_grid."""
        if not self.log:
            return np.linspace(self.start, self.stop, self.count)
        if self.start <= 0:
            raise ValueError("log sweeps need a positive start")
        return core.log_grid(self.start, self.stop, self.count)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_ERROR)


def _write(chunks, args):
    """Write each text of chunks, in order, to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe shows here, inside main


def _report(args, note, **body):
    return dict({"command": " ".join(args.argv),
                 "parameters": {k: args.params[k] for k in sorted(args.params)},
                 "provenance": note}, **body)


def _table_text(args, note, columns):
    """The CSV or JSON text of {name: array or scalar}, broadcast to one
    length, as chunks to write in order. Whatever can fail runs in this
    call, before the first chunk is asked for.

    Each CSV float cell is the bytes of '%.17g' % x, nan, inf and -0 among
    them, and any other cell those of '%s' % v; no cell needs quoting. The
    header is one chunk and each block of rows another (_csv_block), formed
    as it is written. A non-finite JSON cell is null."""
    names = list(columns)
    cols = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
    if args.format == "json":
        cells = [np.where(np.isfinite(col), col, None) if col.dtype.kind == "f"
                 else col for col in cols]
        rows = [dict(zip(names, row)) for row in zip(*(col.tolist() for col in cells))]
        report = _report(args, note, columns=names, rows=rows)
        return [json.dumps(report, indent=2, allow_nan=False) + "\n"]
    seps = [","] * (len(cols) - 1) + ["\n"]
    step = max(1, _BLOCK_CELLS // len(cols))
    blocks = (_csv_block([col[start:start + step] for col in cols], seps)
              for start in range(0, len(cols[0]), step))
    return itertools.chain([",".join(names) + "\n"], blocks)


def _csv_block(cols, seps):
    """The CSV text of one block of rows: cols holds the block of each
    column, seps the separator after each. A column whose every cell prints
    as its float, a float column or one of ints below 2**53 in magnitude,
    goes through _float_cells; any other cell is '%s' % v. Each cell's text
    and separator fill a row of zero bytes, from which one pass keeps the
    text."""
    kernel, texts = [], {}
    for i, col in enumerate(cols):
        if col.dtype.kind == "f" or (col.dtype.kind in "iu"
                                     and -2 ** 53 < col.min() and col.max() < 2 ** 53):
            kernel.append(i)
        else:
            texts[i] = np.array(["%s%s" % (v, seps[i]) for v in col.tolist()], "S")
    if kernel:
        x = np.array([cols[i] for i in kernel], dtype=float).T.copy()
        cells = _float_cells(x, [seps[i] for i in kernel])
    if texts:
        words = max([_FLOAT_WORDS] + [text.itemsize // 8 + 1 for text in texts.values()])
        buf = np.zeros((len(cols[0]), len(cols), words), "<u8")
        if kernel:
            buf[:, kernel, :_FLOAT_WORDS] = cells
        raw = buf.view(np.uint8)
        for i, text in texts.items():
            raw[:, i, :text.itemsize] = text.view(np.uint8).reshape(len(text), -1)
    else:
        raw = cells.view(np.uint8)
    return raw[raw != 0].tobytes().decode("ascii")


# -- CSV floats: '%.17g' from an exact array kernel -------------------------
#
# A float cell is seven 8-byte words, 56 bytes in little-endian order, that
# hold its text and separator among zero bytes. Bytes 7-23 hold its 17
# digits as the integer part and bytes 31-47 the same digits as the
# fraction, bytes 0-6 and 24-30 "0" characters as digits -7..-1. '%.17g'
# puts the point after digit k of decade k in -4..16, and after digit 0,
# with an exponent, below. A mask by decade and last nonzero digit keeps
# the digits up to the point in the integer part and those after it up to
# the last in the fraction, and a row of characters puts the sign, "0."
# before a fraction below 1, the point in the fraction's slot of the digit
# before it, the exponent and the separator. Tables by decade have rows for
# k = -7..17 at k mod 25, which take(..., mode="wrap") reads at k.

_BLOCK_CELLS = 1 << 11  # cells per block: bounds the writer's temporaries
_FLOAT_WORDS = 7
_DECADES = np.roll(np.arange(-7, 18), -7)  # k of each row
_SPLIT = np.array(134217729.0)  # 2 ** 27 + 1, Veltkamp's split into 26-bit halves
# 10 ** (16 - k) for k = -6..16, each a double, and its two halves; 0 for
# k = -7 and 17, decades log10 can misjudge past the kernel's, which the
# exactness check then turns away
_SCALES = np.array([[float(10 ** (16 - k))] * 3 if -6 <= k <= 16 else [0.0] * 3
                    for k in _DECADES.tolist()])
_SCALES[:, 1] = _SPLIT * _SCALES[:, 0] - (_SPLIT * _SCALES[:, 0] - _SCALES[:, 0])
_SCALES[:, 2] = _SCALES[:, 0] - _SCALES[:, 1]


def _digit_tables():
    """The four digit characters of 0..9999, the first in the lowest byte;
    and by j 10**4 + v, 4 times the index among digits 1..16 of the last
    nonzero digit of group v in place j, or 0."""
    v = np.arange(10 ** 4, dtype=np.uint32)
    groups = sum((v // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4))
    zeros = sum((v % 10 ** i == 0).view(np.int8) for i in (1, 2, 3))
    last = np.where(v > 0, np.arange(4, 20, 4, dtype=np.int8)[:, None] - zeros, 0) * 4
    return groups.astype("<u4"), last.astype(np.int8).ravel()


def _cell_tables():
    """The mask and the characters of a float cell, by row
    ((k 17 + last) 2 + ends its row) 2 + sign."""
    k = _DECADES[:, None, None].astype(np.int8)
    last = np.arange(17, dtype=np.int8)[:, None]
    byte = np.arange(8 * _FLOAT_WORDS, dtype=np.int8)
    digit = np.where(byte < 24, byte - 7, byte - 31)
    fraction = (byte >= 24) & (byte < 48)
    exponent = k < -4
    below_one = (k < 0) & ~exponent
    at = np.where(exponent, 0, k)  # the digit before the point
    keep = np.where(byte < 24, (0 <= digit) & (digit <= at),
                    fraction & (at < digit) & (digit <= last))
    point = (last > at) | below_one
    tail = np.where(point, 32 + last, 8 + at)  # the byte after the last digit
    chars = np.select(
        [fraction & (digit == at) & point, fraction & (digit == at - 1) & below_one,
         exponent & (byte == tail), exponent & (byte == tail + 1),
         exponent & (byte == tail + 2), exponent & (byte == tail + 3)],
        [ord("."), ord("0"), ord("e"), ord("-"), ord("0"), ord("0") - k], 0).astype(np.uint8)
    sign = np.where(byte == np.where(below_one, 29 + k, 6), ord("-"), 0).astype(np.uint8)
    sep = byte == tail + 4 * exponent
    ends = np.array([ord(","), ord("\n")], np.uint8)[:, None, None]
    chars = (chars[:, :, None, None] + sep[:, :, None, None] * ends
             + sign[:, :, None, None] * np.arange(2, dtype=np.uint8)[:, None])
    keep = np.broadcast_to((keep * np.uint8(0xFF))[:, :, None, None], chars.shape)
    return tuple(np.ascontiguousarray(table).view("<u8").reshape(-1, _FLOAT_WORDS)
                 for table in (keep, chars))


@functools.cache
def _tables():
    """The digit and cell tables, built when the first float cell is written:
    a process that writes none, as the library's callers and `summary`, pays
    neither their time nor their memory."""
    return _digit_tables() + _cell_tables()


_PLACES = np.arange(4)[:, None] * 10 ** 4
# ufuncs take 0-d arrays faster than Python numbers
_NIL, _ONE, _LOW, _HIGH, _LEAST = map(np.array, (0.0, 1.0, 1e-6, 1e17, 1e16))
_E4, _E8, _E16, _E17 = (np.array(10 ** e) for e in (4, 8, 16, 17))
_ROWS = np.array(68)  # cell table rows a decade: 17 last digits, 2 ends, 2 signs


def _float_cells(x, seps):
    """'%.17g' % v + sep for each v of the 2-d float64 array x, with the
    separator seps[j] after column j, as the words of a float cell (see
    above) by row and column.

    The kernel takes zeros and each |v| in [1e-6, 1e17), whose decade k
    lies in [-6, 16]. log10 guesses k; Dekker's exact two-product splits
    v 10**(16 - k) into p + err (10**e is a double for e <= 22), and
    N = p + rint(err) rounds it half to even, as p is an even integer. A cell is taken only where the exact pair shows
    10**16 <= v 10**(16 - k) and N < 10**17, so the guess never decides a
    digit. N's digits come four at a time from a table. Every other cell is
    formatted one by one."""
    groups, last_digit, keep, chars = _tables()
    shape = x.shape
    x = x.ravel()
    a = np.abs(x)
    zero = a == _NIL
    taken = (a >= _LOW) & (a < _HIGH)
    a = np.where(taken, a, _ONE)
    k = np.floor(np.log10(a)).astype(np.intp)
    c, c_hi, c_lo = _SCALES.take(k, axis=0, mode="wrap").T
    p = a * c
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    err = a_lo * c_lo - (((p - a_hi * c_hi) - a_lo * c_hi) - a_hi * c_lo)
    n = p.astype(np.int64)
    n += np.rint(err).astype(np.int64)
    taken &= (p - _LEAST) + err >= _NIL  # exact: the pair is at least 10**16
    taken &= n < _E17
    n *= taken  # zeros, and the cells left to dtoa, go as 0
    taken |= zero
    first = n // _E16
    n -= first * _E16
    high = n // _E8
    n -= high * _E8
    q_high, q_low = high // _E4, n // _E4
    # table entries, four digit characters each, of both copies: "0000",
    # "000" and digit 0, then digits 1-16 in four groups; and two for the
    # last word, which the mask clears
    zeros = np.zeros(x.size, np.int64)
    index = np.concatenate((zeros, first, q_high, high - q_high * _E4, q_low, n - q_low * _E4)
                           * 2 + (zeros, zeros)).reshape(2 * _FLOAT_WORDS, -1)
    cells = groups.take(index.T).view("<u8")
    last = last_digit.take(index[2:6] + _PLACES)
    row = k * _ROWS + np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    row += np.signbit(x)
    by_column = row.reshape(shape)
    by_column += np.array([2 * (sep == "\n") for sep in seps])
    table = keep.take(row, axis=0, mode="wrap")
    cells &= table
    cells |= chars.take(row, axis=0, out=table, mode="wrap")
    cells = cells.reshape(shape + (_FLOAT_WORDS,))
    if taken.all():
        return cells
    rest = np.flatnonzero(~taken)
    text = np.array(["%.17g%s" % (v, seps[i % len(seps)])
                     for v, i in zip(x[rest].tolist(), rest.tolist())], "S%d" % (8 * _FLOAT_WORDS))
    cells.view(np.uint8).reshape(x.size, -1)[rest] = text.view(np.uint8).reshape(rest.size, -1)
    return cells


# key: (default, domain, meaning). The table1 defaults are channel.TABLE1's;
# a_r, given as None, defaults to 2 w0.
T1 = channel.TABLE1
PARAMS = {
    "mu": (T1["mu"], "[0, inf)", "attenuation density, 1/m"),
    "n_th": (T1["n_th"], "[0, inf)", "environment thermal photons"),
    "temperature": (T1["temperature"], "(0, inf)", "environment temperature, K"),
    "r": (T1["r"], "[0, inf)", "squeezing parameter of the source"),
    "n": (T1["n"], "[0, inf)", "source thermal photons"),
    "tau": (T1["tau"], "(0, 1)", "subtraction beam-splitter transmissivity"),
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
    "n_modes": (1, "{1,...,100}", "modes of the vacuum and thermal states"),
    "alpha_re": (0.0, "(-inf, inf)", "coherent amplitude, real part"),
    "alpha_im": (0.0, "(-inf, inf)", "coherent amplitude, imaginary part"),
}


def _check(key, value):
    """Raise ValueError unless value lies in the key's domain, an interval or
    the whole numbers {lo,...,hi}; NaN never does."""
    domain = PARAMS[key][1]
    ends = domain[1:-1].split(",")
    lo, hi = float(ends[0]), float(ends[-1])
    if domain[0] == "{":
        inside = lo <= value <= hi and float(value).is_integer()
    else:
        inside = ((lo <= value if domain[0] == "[" else lo < value)
                  and (value <= hi if domain[-1] == "]" else value < hi))
    if not inside:
        raise ValueError("%s = %g lies outside its domain %s" % (key, value, domain))


def _resolve_params(args, usage_error):
    """The table defaults, then the preset or profile, then each --set; the
    defaults lie in their domains, and every value given is checked."""
    given = []
    if args.preset in channel.PRESETS:
        given += channel.PRESETS[args.preset].items()
    elif args.preset:
        try:
            given += channel.load_profile(args.preset).items()
        except OSError as exc:
            usage_error("--preset %r is neither a named preset (%s) nor a readable "
                        "profile: %s" % (args.preset, ", ".join(channel.PRESETS),
                                         exc.strerror))
        except ValueError as exc:
            usage_error("profile %s: %s" % (args.preset, exc))
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
    r, lam = x["r"], core.math_map(math.tanh, x["r"])
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
            "qcrb_gap": bifreq.variance_formula(p.n_s, coeffs.l12) * h_q - 1.0}


def _satellite_table(x):
    d, w0 = x["d"], x["w0"]
    geom = channel.LinkGeometry(nu=x["nu"], d=d, a=2.0 * w0, e_a=1.0,
                                w0=w0, a_r=x["a_r"])
    return {"d": d, "fspl_db": channel.fspl(x["nu"], d),
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


def _teleport_table(x):
    L = x["L"]
    link = (x["r"], x["n"], x["mu"], x["n_th"], x["eta_ant"])
    resource = teleport.TeleportResource(x["resource"], *link, x["tau"],
                                         x["inv_gain"])
    bare = teleport.TeleportResource("tmst-" + resource.geometry, *link)
    if resource.kind.startswith("swap"):  # its links span L/2, the bare one L
        f, fb = resource.fidelity(L), bare.fidelity(L)
    else:  # one link triple for both: u = -expm1(-mu L/2) once
        channel.check_lengths(L)
        triple = channel.tmst_params(x["mu"], L, x["n_th"], x["eta_ant"], x["r"], x["n"],
                                     resource.geometry)
        f = resource._fidelity_at(*triple)
        fb = f if bare.kind == resource.kind else bare._fidelity_at(*triple)
    return {"L": L, "fidelity": f, "fidelity_bare": fb, "gain": f - fb}


def _distill_table(x):
    geometry = x["geometry"]
    # _check has checked every field at the boundary
    bare = channel.tmst_params(x["mu"], x["L"], x["n_th"], x["eta_ant"], x["r"],
                               x["n"], geometry)
    *tilde, prob = distill.ps2_standard_form(*bare, x["tau"])
    nu_bare = entanglement.nu_minus_standard(*bare)
    # 1 + g of ps2_gaussian is heuristic_factor at the subtracted triple
    rg = {tag: teleport.regaussify_standard(
              *triple, distill.heuristic_factor(*triple), geometry)
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
    # the ideal swap is the finite-gain one at g = inf
    link = channel.tmst_polys(x["r"], x["n"], x["n_th"], x["eta_ant"], "asym")
    alpha, beta, gamma, alpha_t, gamma_t = teleport.swap_link(link, x["mu"], x["L"],
                                                              np.inf)
    nu = entanglement.nu_minus_standard(alpha_t, alpha_t, gamma_t)
    theta, valid = entanglement.cm_validity(alpha_t, alpha_t, gamma_t)
    return {"L": x["L"], "alpha": alpha, "beta": beta, "gamma": gamma,
            "alpha_swap": alpha_t, "gamma_swap": gamma_t, "nu_minus": nu,
            "negativity": entanglement.negativity_from_nu(nu),
            "fidelity": teleport.fidelity_finite_gain(alpha_t, alpha_t, gamma_t, np.inf),
            "theta": theta, "valid": valid.astype(int)}


def _channel_table(x):
    ch = channel.AirChannel(x["mu"], x["L"], x["n_th"], x["eta_ant"])
    columns = {"L": x["L"]}
    u = channel.tmst_u(ch.mu, ch.L)  # both geometries share it
    for geometry in ("asym", "sym"):
        link = channel.tmst_polys(x["r"], x["n"], ch.n_th_env, ch.eta_ant, geometry)
        nu = entanglement.nu_minus_standard(*channel.tmst_at_u(link, u))
        columns["nu_minus_" + geometry] = nu
        columns["log_neg_" + geometry] = entanglement.log_negativity_from_nu(nu)
    columns["eta_env"] = channel.eta_env(ch)
    return columns


def _cmd_table(args):
    entry = COMMANDS[args.command]
    spec = entry["default"]
    var = args.sweep[0] if args.sweep else spec and spec.variable
    if args.sweep:
        spec = SweepSpec(entry["sweeps"][var], *args.sweep[1:], log=args.log)
    x = dict(args.params)
    if spec:
        if spec.variable in PARAMS:  # a monotone grid: its ends bound it
            _check(spec.variable, spec.start)
            _check(spec.variable, spec.stop)
        x[spec.variable] = spec.values()
    if "option" in entry:
        dest = entry["option"][0]
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
    "qi-probe": lambda p: illumination.qi_probe(p["n_s"], p["n_th_bath"]),
    "bifreq-probe": lambda p: bifreq.bifreq_probe(bifreq.BifreqParams(
        p["eta1"], 0.0, p["n_s"], p["n_signal"], p["n_th_bath"])),
    "lossy-tmst-asym": lambda p: _lossy_tmst_state(p, "asym"),
    "lossy-tmst-sym": lambda p: _lossy_tmst_state(p, "sym"),
}


def _cmd_state(args):
    # an overflow or a NaN stops the build with one line, not a numpy warning;
    # every builder returns a validated state
    try:
        with np.errstate(all="raise"):
            state = STATES[args.kind](args.params)
    except (ArithmeticError, ValueError) as exc:
        raise ArithmeticError("state --kind %s: %s" % (args.kind, exc)) from None
    _write([state.to_json() + "\n"], args)
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
    bare_limit = limit("tmst-asym")
    add("classical_limit_asym_m", bare_limit, 479.0, 1.0)
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
    _write([json.dumps(report, indent=2, allow_nan=False) + "\n"], args)
    return 0 if all_pass else ANCHOR_FAILURE


# -- the subcommand table ----------------------------------------------------

# name -> help, its own option (added ahead of the common ones; a table
# function finds its value under the option's name), and either a run
# function or a table function with its sweep variable -> the parameter it
# sets, default sweep (None: one row, no sweep) and provenance; the note may
# name {var} and {args}. The order is that of --help.
COMMANDS = {
    "state": dict(
        help="construct a state and print its JSON", run=_cmd_state,
        option=("kind", {"required": True, "choices": tuple(STATES)})),
    "negativity": dict(
        help="negativity of photon-subtracted squeezed vacuum vs r",
        table=_negativity_table,
        sweeps={"r": "r"}, default=SweepSpec("r", 0.0, 1.5, 61),
        note="negativity of photon-subtracted vs bare two-mode squeezed "
             "vacuum, with success probabilities"),
    "illum": dict(
        help="quantum illumination gain and Fisher informations",
        table=_illum_table,
        sweeps={"n_s": "n_s", "n_th": "n_th_bath", "gamma": "gamma"},
        default=SweepSpec("n_s", 0.01, 5.0, 100),
        note="illumination gain and Fisher informations vs {var}"),
    "bifreq": dict(
        help="bi-frequency enhancement ratio and optimal observable",
        table=_bifreq_table,
        sweeps={"eta1": "eta1", "n_s": "n_s", "n": "n_signal", "n_th": "n_th_bath"},
        default=SweepSpec("n_s", 0.2, 5.0, 25),
        note="bi-frequency enhancement ratio and observable coefficients "
             "vs {var}"),
    "swap": dict(
        help="entanglement-swapped resource vs distance",
        table=_swap_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 600.0, 121),
        note="entanglement-swapped resource vs distance"),
    "channel": dict(
        help="distributed-state entanglement vs distance",
        table=_channel_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 600.0, 121),
        note="distributed-state entanglement vs distance"),
    "satellite": dict(
        help="free-space path loss and diffraction transmissivity",
        table=_satellite_table,
        sweeps={"d": "d"}, default=SweepSpec("d", 10.0, 1e7, 61, log=True),
        note="free-space path loss and diffraction transmissivity vs distance"),
    "qfi": dict(
        help="closed-form QFI of a named received family",
        option=("family", {"default": "illum", "choices": tuple(QFI_FAMILIES)}),
        table=_qfi_table,
        sweeps={}, default=None,
        note="quantum Fisher information of the selected family"),
    "teleport": dict(
        help="teleportation fidelity of a resource vs distance",
        option=("resource", {"default": "tmst-asym",
                             "choices": teleport.TeleportResource.KINDS}),
        table=_teleport_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 600.0, 121),
        note="average teleportation fidelity vs distance, resource "
             "{args.resource}"),
    "distill": dict(
        help="re-Gaussified photon-subtraction negativities",
        option=("geometry", {"default": "sym", "choices": ("asym", "sym")}),
        table=_distill_table,
        sweeps={"L": "L"}, default=SweepSpec("L", 0.0, 500.0, 101),
        note="re-Gaussified photon-subtraction negativities vs distance "
             "({args.geometry} geometry)"),
    "summary": dict(help="verify headline anchors", run=_cmd_summary),
}


@functools.cache
def build_parser():
    parser = _Parser(prog="cvmw",
                     description="Gaussian microwave quantum-link toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = "parameters (--set KEY=VALUE):\n" + "\n".join(
        "  %-11s %-9s %-12s %s" % (key, "2 w0" if value is None else "%g" % value,
                                   domain, meaning)
        for key, (value, domain, meaning) in PARAMS.items())
    for name, entry in COMMANDS.items():
        sp = sub.add_parser(name, help=entry["help"], epilog=epilog,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        if "option" in entry:
            dest, kwargs = entry["option"]
            sp.add_argument("--" + dest, **kwargs)
        sp.add_argument("--preset", default=None,
                        help="named preset (table1) or profile file path")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a parameter")
        sp.add_argument("--out", default=None, help="output file")
        if "table" in entry:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
            sp.add_argument("--jobs", type=int, default=1,
                            help="accepted for interface compatibility; no effect")
        if entry.get("sweeps"):
            sp.add_argument("--sweep", nargs=4, default=None,
                            metavar=("VAR", "START", "STOP", "COUNT"))
            sp.add_argument("--log", action="store_true",
                            help="logarithmic sweep spacing")
        sp.set_defaults(func=entry.get("run", _cmd_table), sweep=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = sys.argv[1:] if argv is None else list(argv)
        if args.sweep:  # only the subcommands with sweep variables have --sweep
            if args.sweep[0] not in COMMANDS[args.command]["sweeps"]:
                parser.error("%s cannot sweep %s" % (args.command, args.sweep[0]))
            try:
                args.sweep[1:] = map(float, args.sweep[1:])
            except ValueError:
                parser.error("--sweep START STOP COUNT must be numbers, got %s"
                             % " ".join(args.sweep[1:]))
        elif getattr(args, "log", False):
            parser.error("--log needs --sweep")
        args.params = _resolve_params(args, parser.error)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    except BrokenPipeError:
        # the reader has closed stdout, as `head` does: stop quietly. What
        # Python still flushes at exit goes to devnull, as its SIGPIPE notes
        # advise, not into a second BrokenPipeError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, RuntimeError, OSError, KeyError, ArithmeticError) as exc:
        sys.stderr.write("computation error: %s\n" % exc)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
