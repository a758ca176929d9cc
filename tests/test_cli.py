import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest

from cvmw import channel, cli, core, teleport
from tests import child
from tests.oracles.routes import (nu_minus_mp, probe_nu_minus_mp, ps2_fidelity_mp,
                                  ps2_standard_form_mp)
from tests.test_independence import PAPER_RESULTS

# the subcommands that print a table, in --help order
TABLES = [name for name, entry in cli.COMMANDS.items() if "table" in entry]


def run_cli(*args):
    """cli.main(args) in this process: its exit code, stdout and stderr, with
    each warning raised inside it appended to stderr as Python prints one.
    The tests run the CLI this way; an empty stderr is what a child under
    `python -W error` would enforce (test_exit_code_of_a_fresh_process)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught)


def test_run_cli_reports_a_warning_raised_inside_main(monkeypatch):
    def noisy(x):
        return {"L": x["L"], "log": np.log(np.zeros(1))}

    monkeypatch.setitem(cli.COMMANDS["channel"], "table", noisy)
    code, out, err = run_cli("channel", "--sweep", "L", "0", "1", "2")
    assert code == 0 and out.startswith("L,log\n")
    assert "RuntimeWarning: divide by zero encountered in log" in err


@pytest.mark.parametrize("argv,code", [
    (["channel"], 0),
    (["no-such-command"], 1),
    (["negativity", "--set", "tau=1.7"], 2),
    (["summary", "--preset", "table1", "--set", "mu=3e-6"], 3),
    (["state", "--kind", "tmst", "--set", "r=400"], 2),
])
def test_exit_code_of_a_fresh_process(argv, code):
    """A fresh `python -W error` process exits with the code and prints the
    bytes that run_cli reports in process, an overflow included: so a test
    that asserts run_cli's stderr empty sees what a strict child sees."""
    proc = child.cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout, proc.stderr) == run_cli(*argv)[1:]


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestSweepSpec:
    def test_linear_and_log_values(self):
        lin = cli.SweepSpec("x", 1.0, 5.0, 5)
        np.testing.assert_allclose(lin.values(), [1, 2, 3, 4, 5])
        log = cli.SweepSpec("x", 1.0, 100.0, 3, log=True)
        np.testing.assert_allclose(log.values(), [1, 10, 100])

    def test_validation(self):
        with pytest.raises(ValueError):
            cli.SweepSpec("x", 1.0, 5.0, 1)
        with pytest.raises(ValueError):
            cli.SweepSpec("x", 5.0, 1.0, 3)
        with pytest.raises(ValueError):
            cli.SweepSpec("x", -1.0, 5.0, 3, log=True).values()

    def test_log_sweep_through_cli(self):
        _, out, _ = run_cli("satellite", "--sweep", "d", "100", "10000", "3",
                            "--log")
        rows = parse_csv(out)
        assert [float(r["d"]) for r in rows] == pytest.approx([100, 1000, 10000])


class TestExitCodes:
    def test_usage_error(self):
        code, _, _ = run_cli("no-such-command")
        assert code == 1

    def test_computation_error(self):
        code, _, err = run_cli("teleport", "--resource", "tmst-asym",
                               "--set", "r=-bogus")
        assert code == 2 or code == 1

    def test_bad_parameter_value(self):
        code, _, err = run_cli("negativity", "--set", "tau=1.7")
        assert code == 2
        assert "error" in err.lower()

    def test_summary_passes_on_reference_preset(self):
        code, out, _ = run_cli("summary", "--preset", "table1")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"]
        names = {a["name"] for a in report["anchors"]}
        assert {"reach_asym_m", "classical_limit_fg_swap_m",
                "bifreq_ratio_numeric", "sat_aperture_product_m2"} <= names

    def test_summary_fails_with_wrong_parameters(self):
        # doubled attenuation shifts every distance anchor
        code, out, _ = run_cli("summary", "--preset", "table1",
                               "--set", "mu=3e-6")
        assert code == 3
        assert not json.loads(out)["all_pass"]


class TestFailureContract:
    @pytest.mark.parametrize("argv", [
        ("channel", "--sweep", "r", "0.5", "1.5", "3"),
        ("swap", "--sweep", "r", "0.5", "1.5", "3"),
        ("distill", "--sweep", "r", "0.5", "1.5", "3"),
        ("satellite", "--sweep", "L", "0", "100", "3"),
        ("illum", "--sweep", "foo", "0", "1", "3"),
        ("negativity", "--sweep", "L", "0", "100", "3"),
        ("teleport", "--sweep", "r", "0.5", "1.5", "3"),
    ])
    def test_sweep_variable_outside_table_is_usage_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert "cannot sweep" in err

    @pytest.mark.parametrize("argv", [
        ("summary", "--format", "csv"),
        ("summary", "--jobs", "4"),
        ("summary", "--log"),
        ("summary", "--sweep", "L", "0", "100", "3"),
        ("state", "--kind", "vacuum", "--format", "json"),
        ("state", "--kind", "vacuum", "--jobs", "2"),
        ("state", "--kind", "vacuum", "--log"),
        ("state", "--kind", "vacuum", "--sweep", "r", "0", "1", "3"),
        ("qfi", "--log"),
        ("qfi", "--sweep", "n_s", "0.1", "1", "3"),
    ])
    def test_option_the_subcommand_lacks_is_usage_error(self, argv, capsys):
        assert cli.main(list(argv)) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("teleport", "--resource", "tmst-asym-fg", "--set", "inv_gain=0"),
        ("summary", "--set", "r=0"),
        ("bifreq", "--set", "eta1=1.0"),
        # reflectivity boundaries: a pure received state, a coherent-probe
        # derivative that diverges as 1/sqrt(eta), an H_C that diverges
        ("qfi", "--family", "bifreq", "--set", "eta1=1"),
        ("qfi", "--family", "bifreq-classical", "--set", "eta1=0"),
        ("bifreq", "--sweep", "eta1", "0.5", "1.0", "3"),
        # tanh(30) rounds to 1
        ("negativity", "--sweep", "r", "0", "30", "3"),
        # a negative source occupation
        ("channel", "--set", "n=-1"),
        ("teleport", "--set", "n=-1"),
        ("teleport", "--resource", "tmst-asym-fg", "--set", "n=-1"),
        ("distill", "--set", "n=-1"),
        ("state", "--kind", "lossy-tmst-asym", "--set", "n=-1"),
        # squeezing so strong that cosh 2r overflows
        ("state", "--kind", "tmsv", "--set", "r=400"),
        # non-finite parameters
        ("illum", "--set", "n_s=nan"),
        ("bifreq", "--set", "n_s=nan"),
        ("satellite", "--set", "nu=nan"),
        ("state", "--kind", "thermal", "--set", "n_th=nan"),
        ("channel", "--set", "r=nan"),
        ("channel", "--set", "n=inf"),
    ])
    def test_arithmetic_errors_exit_2_without_traceback(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "Warning" not in err
        assert "computation error" in err

    def test_strongly_squeezed_states_are_built_physical(self):
        """A source or probe pair's diagonal is rounded up until its stored
        floats are physical, so tmsv up to r = 355, just short of the
        overflow of cosh 2r, and both probes at each decade of n_s up to
        1e150 exit 0, far past where the floats of cosh 2r and sinh 2r (say
        at r = 9 or 12), or the bi-frequency probe's S and C (n_s = 2000),
        fail the uncertainty relation."""
        settings = [("tmsv", "r=%r" % r) for r in np.arange(0.0, 355.25, 0.5).tolist()]
        settings += [(kind, "n_s=1e%d" % k) for kind in ("qi-probe", "bifreq-probe")
                     for k in range(151)] + [("bifreq-probe", "n_s=2000")]
        failed = [(kind, setting) for kind, setting in settings
                  if cli.main(["state", "--kind", kind, "--set", setting,
                               "--out", os.devnull]) != 0]
        assert not failed, failed

    @pytest.mark.parametrize("command,setting", [("channel", "mu=nan"),
                                                 ("teleport", "n_th=-5")])
    def test_out_of_range_channel_is_computation_error(self, command, setting):
        code, out, err = run_cli(command, "--set", setting)
        assert code == 2
        assert out == ""
        assert "Warning" not in err

    def test_zero_attenuation_summary_is_computation_error(self):
        code, out, err = run_cli("summary", "--set", "mu=0")
        assert code == 2
        assert out == ""
        assert "mu = 0" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("bifreq", "--sweep", "eta1", "0.5", "1.0", "3"),
        ("bifreq", "--set", "eta1=1.0"),
    ])
    def test_bifreq_at_unit_reflectivity_is_computation_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "diverges at eta1 = 1" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("bifreq",), ("qfi", "--family", "bifreq-classical"),
    ])
    def test_bifreq_at_a_faint_bath_is_finite(self, argv):
        # 1 + 2 n_th tau1 rounds to 1 here, yet the thermal term is ~1e-15
        code, out, err = run_cli(*argv, "--set", "n_th_bath=1e-16")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(math.isfinite(float(cell)) for row in rows
                            for key, cell in row.items() if key != "family")

    def test_coherent_bifreq_qfi_at_a_hot_bath(self):
        # n_th / (tau1 (1 + n_th tau1)) -> 1 / tau1^2, with no quartic to
        # overflow; 100.00000000000004 is the float nearest its 80-digit value
        code, out, err = run_cli("qfi", "--family", "bifreq-classical",
                                 "--set", "n_th_bath=1e78")
        assert code == 0 and err == ""
        (row,) = csv.DictReader(io.StringIO(out))
        assert float(row["h_closed"]) == 100.00000000000004

    def test_a_failed_point_fails_the_whole_table(self):
        # the last of three received states is too close to pure for the
        # Monras solve: no row is printed, no NaN cell stands in for it
        code, out, err = run_cli("bifreq", "--sweep", "eta1", "0.5", "0.999999999", "3")
        assert code == 2
        assert out == ""
        assert "regularization required" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        # r = n = 0: E_0 = 0 at L = 0 only (the same sweep from L = 50 exits 0)
        ("distill", "--set", "r=0", "--set", "n=0", "--sweep", "L", "0", "100", "3"),
        ("teleport", "--resource", "2ps-prob-sym", "--set", "tau=0"),
        ("swap", "--sweep", "L", "-10", "100", "3"),
        ("channel", "--sweep", "L", "0", "inf", "3"),
        # the 2PS fidelities subtract at every row: E_0 = 0 at L = 0 only
        ("teleport", "--resource", "2ps-heur-sym", "--set", "r=0", "--set", "n=0",
         "--sweep", "L", "0", "100", "3"),
        ("teleport", "--resource", "2ps-prob-sym", "--set", "r=0", "--set", "n=0",
         "--sweep", "L", "0", "100", "3"),
    ])
    def test_bad_row_in_an_array_sweep_is_computation_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "computation error" in err
        assert "Warning" not in err and "Traceback" not in err

    def test_a_failing_table_writes_no_byte(self, tmp_path, capsys):
        """The table is checked whole before the first chunk: an overflow
        leaves neither stdout text nor an --out file."""
        out = tmp_path / "X"
        assert cli.main(["satellite", "--set", "w0=1e300", "--sweep", "d", "1e-300",
                         "1e300", "3", "--log", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_undefined_ratio_anchor_fails_with_a_reason(self):
        # the antenna alone leaves the tmst-asym fidelity at most 1/2 at the
        # source, so the swap reach extension has no reference limit
        code, out, err = run_cli("summary", "--preset", "table1",
                                 "--set", "eta_ant=0.3")
        assert code == 3
        assert "Warning" not in err and "Traceback" not in err
        anchors = {a["name"]: a for a in json.loads(out)["anchors"]}
        swap = anchors["swap_reach_extension_pct"]
        assert swap["pass"] is False and swap["value"] is None
        assert "classical limit is 0" in swap["reason"]
        assert anchors["classical_limit_asym_m"]["value"] == 0.0

    @pytest.mark.parametrize("argv", [
        ("state", "--kind", "foo"),
        ("channel", "--sweep", "L", "0", "abc", "3"),
        ("channel", "--sweep", "L", "abc", "600", "3"),
        ("channel", "--sweep", "L", "0", "600", "three"),
    ] + [(name, "--log") for name in TABLES if cli.COMMANDS[name]["sweeps"]])
    def test_bad_choice_sweep_text_or_lone_log_is_usage_error(self, argv, capsys):
        assert cli.main(list(argv)) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("count", ["2.5", "nan", "inf", "1"])
    def test_sweep_count_must_be_a_whole_number(self, count, capsys):
        assert cli.main(["channel", "--sweep", "L", "0", "600", count]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "sweep count must be a whole number" in err

    @pytest.mark.parametrize("count", ["1e15", str(cli.MAX_SWEEP_COUNT + 1)])
    def test_sweep_count_above_the_maximum_is_refused_before_any_array(self, count,
                                                                        capsys):
        """1e15 rows raised numpy's _ArrayMemoryError with a traceback."""
        tracemalloc.start()
        try:
            code = cli.main(["channel", "--sweep", "L", "0", "600", count])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "sweep count must be at most %d" % cli.MAX_SWEEP_COUNT in err
        assert peak < cli.MAX_SWEEP_COUNT  # bytes: not one float per row
        assert cli.SweepSpec("L", 0.0, 600.0, cli.MAX_SWEEP_COUNT).count == 10 ** 6

    def test_sweep_count_in_exponent_form(self, capsys):
        assert cli.main(["channel", "--sweep", "L", "0", "600", "1e3"]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == 1000

    @pytest.mark.parametrize("kind", ["vacuum", "thermal"])
    @pytest.mark.parametrize("value", ["2.5", "1e5", "0", "101"])
    def test_n_modes_outside_its_whole_range_builds_nothing(
            self, kind, value, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(cli.core, kind, refuse)
        assert cli.main(["state", "--kind", kind, "--set", "n_modes=" + value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "n_modes = %g lies outside its domain {1,...,100}" % (
            float(value)) in err

    def test_bifreq_row_lets_programming_errors_through(self, monkeypatch):
        def broken(params):
            raise TypeError("broken h_q_bifreq")

        monkeypatch.setattr(cli.bifreq, "h_q_bifreq", broken)
        with pytest.raises(TypeError, match="broken"):
            cli.main(["bifreq", "--out", os.devnull])


def outside(domain):
    """The floats just below and just above an interval such as "(0, 1]", or
    a range of whole numbers such as "{1,...,100}"."""
    ends = domain[1:-1].split(",")
    lo, hi = float(ends[0]), float(ends[-1])
    return (lo if domain[0] == "(" else float(np.nextafter(lo, -np.inf)),
            hi if domain[-1] == ")" else float(np.nextafter(hi, np.inf)))


class TestParameterTable:
    @pytest.mark.parametrize("key", list(cli.PARAMS))
    def test_out_of_domain_value_exits_2(self, key, capsys):
        default, domain, _ = cli.PARAMS[key]
        if default is not None:
            cli._check(key, default)
        for value in (float("nan"),) + outside(domain):
            argv = ["state", "--kind", "vacuum", "--set", "%s=%r" % (key, value)]
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and key in err and domain in err

    @pytest.mark.parametrize("argv", [["distill"],
                                      ["teleport", "--resource", "2ps-prob-sym"],
                                      ["negativity"]])
    def test_unit_tau_lies_outside_its_domain(self, argv, capsys):
        # every probabilistic subtraction route refuses tau = 1; negativity's
        # PsTmsv would print p2 = p4 = 0 and prob columns equal to the heur ones
        assert cli.main(argv + ["--set", "tau=1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tau = 1 lies outside its domain (0, 1)" in err

    @pytest.mark.parametrize("key", list(cli.PARAMS))
    def test_misspelt_key_exits_1_and_names_the_key(self, key, capsys):
        typo = key + key[-1]
        assert cli.main(["state", "--kind", "vacuum", "--set", typo + "=1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "%r; did you mean %r?" % (typo, key) in err

    @pytest.mark.parametrize("argv,code,message", [
        (["channel", "--set", "rr=0.5"], 1, "did you mean 'r'?"),
        (["state", "--kind", "bifreq-probe", "--set", "n_r=1"], 1, "'n_r'"),
        (["--seed", "3", "qfi"], 1, "error:"),
        (["bifreq", "--set", "n_th_bath=0"], 2, "n_th_bath = 0"),
        (["illum", "--sweep", "n_th", "0", "1", "3"], 2, "n_th_bath = 0"),
        (["negativity", "--sweep", "r", "-1", "1", "3"], 2, "r = -1"),
        (["satellite", "--set", "w0=0"], 2, "w0 = 0"),
        (["channel", "--set", "r"], 1, "--set expects key=value, got 'r'"),
        (["channel", "--set", "r=abc"], 1, "'abc' is not a number"),
        (["channel", "--preset", "table2"], 1,
         "--preset 'table2' is neither a named preset (table1)"),
    ])
    def test_rejected_without_output(self, argv, code, message, capsys):
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err

    def test_unknown_key_in_a_profile_exits_1(self, tmp_path, capsys):
        profile = tmp_path / "typo.txt"
        profile.write_text("[channel]\nmu = 1.44e-6\nn_thermal = 1250\n")
        assert cli.main(["channel", "--preset", str(profile)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "'n_thermal'" in err

    @pytest.mark.parametrize("text,message", [
        ("[source]\nr = abc\n", "line 2: r = 'abc' is not a number"),
        ("[source]\nr 1.0\n", "line 2: expected key = value"),
        ("r = 1.0\n[distill]\nr = 0.5\n", "line 3: 'r' is given twice"),
    ])
    def test_malformed_profile_exits_1_naming_file_and_line(
            self, text, message, tmp_path, capsys):
        profile = tmp_path / "bad.txt"
        profile.write_text(text)
        assert cli.main(["channel", "--preset", str(profile)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "profile %s: %s" % (profile, message) in err

    def test_profile_value_outside_its_domain_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "far.txt"
        profile.write_text("[distill]\ntau = 1.5\n")
        assert cli.main(["channel", "--preset", str(profile)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tau = 1.5 lies outside its domain (0, 1)" in err

    def test_bifreq_probe_reads_n_s(self, capsys):
        from cvmw import bifreq
        assert cli.main(["state", "--kind", "bifreq-probe", "--set", "n_s=2"]) == 0
        state = core.GaussianState.from_json(capsys.readouterr().out)
        expected = bifreq.bifreq_probe(bifreq.BifreqParams(0.9, 0.0, 2.0, 0.0, 1.0))
        np.testing.assert_array_equal(state.sigma, expected.sigma)

    @pytest.mark.parametrize("kind", ["qi-probe", "bifreq-probe"])
    def test_probes_read_the_keys_of_their_tables(self, kind, capsys):
        # the bath is n_th_bath and the input thermal photons n_signal, as in
        # illum and bifreq; the link's n_th and n leave the probes alone
        from cvmw import bifreq, illumination
        assert cli.main(["state", "--kind", kind, "--set", "n_th_bath=5", "--set",
                         "n_signal=0.3", "--set", "n_th=7", "--set", "n=0.2"]) == 0
        state = core.GaussianState.from_json(capsys.readouterr().out)
        expected = {"qi-probe": lambda: illumination.qi_probe(1.0, 5.0),
                    "bifreq-probe": lambda: bifreq.bifreq_probe(
                        bifreq.BifreqParams(0.9, 0.0, 1.0, 0.3, 5.0))}[kind]()
        np.testing.assert_array_equal(state.sigma, expected.sigma)

    def test_help_ends_with_the_table(self, capsys):
        for name in cli.COMMANDS:
            assert cli.main([name, "--help"]) == 0
            lines = capsys.readouterr().out.rstrip("\n").split("\n")
            tail = lines[-len(cli.PARAMS):]
            assert [line.split()[0] for line in tail] == list(cli.PARAMS), name

    def test_top_level_help_describes_every_subcommand(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        for name, entry in cli.COMMANDS.items():
            assert entry["help"] and ("run" in entry) != ("table" in entry), name
            assert re.search(r"^\s+%s\s+%s" % (name, re.escape(entry["help"].split()[0])),
                             out, re.M), name
        assert "closed-form" in cli.COMMANDS["qfi"]["help"]

    @pytest.mark.parametrize("name", [None] + list(cli.COMMANDS))
    def test_help_text_matches_its_golden_file(self, name, monkeypatch, capsys):
        # argparse wraps to the terminal width, so the width is fixed at 80
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.main(["--help"] if name is None else [name, "--help"]) == 0
        golden = os.path.join(os.path.dirname(__file__), "golden", "help",
                              "%s.txt" % (name or "cvmw"))
        with open(golden, encoding="utf-8", newline="") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_readme_table_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            rows = [line for line in fh if line.startswith("| `")]
        for key, (_, domain, _) in cli.PARAMS.items():
            assert any(row.startswith("| `%s` |" % key) and domain in row
                       for row in rows), key


def test_cli_paths_load_no_scipy():
    """With scipy blocked: every cvmw module, every subcommand's default run,
    the numeric classical-limit roots and every PAPER_RESULTS name, among
    them those that once needed scipy (mode synthesis, the path integrals,
    the qCRB root)."""
    runs = [["summary", "--preset", "table1"], ["state", "--kind", "tmst"],
            ["qfi"]] + [[name] for name in TABLES if name != "qfi"]
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "sys.modules['scipy'] = None",
        "import cvmw",
        "for info in pkgutil.iter_modules(cvmw.__path__):",
        "    importlib.import_module('cvmw.' + info.name)",
        "from cvmw import bifreq, channel, cli, core, entanglement, teleport",
        "for argv in %r:" % (runs,),
        "    assert cli.main(argv + ['--out', %r]) == 0, argv" % (os.devnull,),
        "from cvmw.teleport import TeleportResource",
        "link = (1.0, 0.01, 1.44e-6, 1250.0)",
        "for kind in ('2ps-prob-sym', '2ps-heur-asym'):",
        "    TeleportResource(kind, *link).classical_limit_distance()",
        "assert len(bifreq.jpa_synthesis(2.0)) == 7",
        "eta, n_eff = channel.eta_env_inhomogeneous(",
        "    lambda x: 1e-5 * (1.0 + x / 100.0), lambda x: 100.0 + x, 100.0)",
        "assert 150.0 < n_eff < 200.0, n_eff",
        "root, bracket = bifreq.qcrb_saturating_noise(0.9, 2.0)",
        "assert bracket[0] <= root <= bracket[1], (root, bracket)",
        "assert abs(bifreq.qcrb_gap(0.9, 2.0, root)) < 1e-6",
        "assert bifreq.high_noise_ratio(2.9) > 1.0",
        "assert bifreq.thermal_ratio(0.5, 0.2)[1] == 0.8",
        "cm = entanglement.BipartiteCM.from_state(core.tmst(1.0, 0.01))",
        "assert entanglement.negativity(channel.hemt_amplify(cm, 2000.0, 20.0)) == 0.0",
        "assert 0.5 < teleport.fidelity_ps_tmsv(0.5, 1) < 1.0",
        "for mu in (channel.MU_WATER_VAPOR_AVG, channel.MU_WATER_VAPOR_MAX):",
        "    assert channel.l_max(channel.AirChannel(mu, 0.0, 1250.0), 1.0, 0.01) > 0",
    ])
    for name, _ in PAPER_RESULTS:
        assert name in script, name
    proc = child.run(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_cli_does_not_load_the_fock_oracle():
    script = "import sys, cvmw.cli; assert 'cvmw.fock' not in sys.modules"
    proc = child.run(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_cli_does_not_load_numpy_polynomial():
    script = "import sys, cvmw.cli; assert 'numpy.polynomial' not in sys.modules"
    proc = child.run(["-c", script])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind", ["tmst-sym", "swap"])
def test_huge_thermal_occupation_stays_finite_without_a_warning(kind):
    """At g = inf the finite-gain terms vanish before alpha beta overflows,
    so the ideal fidelity is 1/(1 + S/2), S = alpha + beta - 2 gamma."""
    code, out, err = run_cli("teleport", "--resource", kind, "--set", "n_th=1e160",
                             "--sweep", "L", "0", "10", "2")
    assert code == 0 and err == "", err
    row = parse_csv(out)[-1]
    assert float(row["L"]) == 10.0
    p = dict(channel.TABLE1, n_th=1e160)
    link = (p["n_th"], p["eta_ant"], p["r"], p["n"])
    if kind == "swap":  # two L/2 links; Charlie measures the lossy modes
        lossy, kept, gamma = channel.tmst_params(p["mu"], 5.0, *link, "asym")
        alpha_t, gamma_t = kept - gamma ** 2 / (2.0 * lossy), gamma ** 2 / (2.0 * lossy)
        s = 2.0 * alpha_t - 2.0 * gamma_t
    else:
        alpha, beta, gamma = channel.tmst_params(p["mu"], 10.0, *link, "sym")
        s = alpha + beta - 2.0 * gamma
    assert float(row["fidelity"]) == pytest.approx(1.0 / (1.0 + s / 2.0),
                                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_th", ["1e160", "1e200", "1e300"])
def test_channel_at_huge_thermal_occupation_is_finite_without_a_warning(n_th):
    """nu_minus_standard takes |D| over the larger eigenvalue, both of the
    entries scaled by a power of two, so alpha beta does not overflow to NaN
    where the entries pass 1e154, and it never squares D = alpha beta -
    gamma^2, which of the scaled asymmetric entries is about beta / alpha:
    its square would underflow to 0 and report the separable state as
    infinitely entangled."""
    code, out, err = run_cli("channel", "--set", "n_th=" + n_th,
                             "--sweep", "L", "0", "10", "2")
    assert code == 0 and err == "", err
    row = parse_csv(out)[-1]
    assert float(row["L"]) == 10.0
    assert all(np.isfinite(float(cell)) for cell in row.values()), row
    p = dict(channel.TABLE1, n_th=float(n_th))
    for geometry in ("asym", "sym"):
        nu = nu_minus_mp(*channel.tmst_params(p["mu"], 10.0, p["n_th"], p["eta_ant"],
                                              p["r"], p["n"], geometry))
        assert float(row["nu_minus_" + geometry]) == pytest.approx(nu, rel=1e-13)
        assert float(row["log_neg_" + geometry]) == 0.0
    assert float(row["nu_minus_asym"]) == pytest.approx(3.8374, abs=1e-4)


@pytest.mark.parametrize("argv,names", [
    (["channel", "--set", "n_th=5e307"], "n_th = 5e+307, r = 1"),
    (["channel", "--set", "n_th=1e308"], "n_th = 1e+308"),
    (["teleport", "--resource", "tmst-sym", "--set", "n_th=1e308"], "n_th = 1e+308"),
    (["channel", "--set", "r=400"], "r = 400"),
])
def test_overflowing_source_or_environment_exits_2_naming_it(argv, names):
    """Above n_th = 4.5e307 the asymmetric coefficient 2 (e - a) overflows,
    above 9e307 e = 1 + 2 n_th itself, above r = 355 cosh 2r: each stops
    with one line and no raw numpy warning."""
    code, out, err = run_cli(*argv, "--sweep", "L", "0", "10", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("computation error:"), err
    assert names in lines[0]


def test_overflowing_aperture_exits_2_naming_it():
    """A squared LinkGeometry field that overflows stops with one line that
    names it: the satellite table squares a = 2 w0 first, in tau_path."""
    code, out, err = run_cli("satellite", "--set", "w0=1e300",
                             "--sweep", "d", "1e-300", "1e300", "3", "--log")
    assert code == 2 and out == ""
    assert err == ("computation error: the link geometry's a^2 overflows "
                   "at a = 2e+300\n"), err


@pytest.mark.parametrize("kind,setting", [
    ("tmst", "r=400"), ("tmsv", "r=400"), ("thermal", "n_th=1e308"),
    ("qi-probe", "n_s=1e308"), ("qi-probe", "n_th_bath=1e308"),
    ("bifreq-probe", "n_s=1e308"),
])
def test_overflowing_state_exits_2_naming_the_kind(kind, setting):
    """cosh 2r overflows above r = 355, and 2 n_th or 2 n_s above 9e307:
    the build stops at the first overflow or NaN with one line, and no raw
    numpy warning comes before it. The qi-probe line names the field."""
    code, out, err = run_cli("state", "--kind", kind, "--set", setting)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "computation error: state --kind %s:" % kind), err
    if kind == "qi-probe":  # n_th_bath is the probe's n_th
        field = {"n_s=1e308": "n_s = 1e+308", "n_th_bath=1e308": "n_th = 1e+308"}
        assert field[setting] in lines[0], err


def test_overflowing_probe_correlation_names_n_s():
    """The bi-frequency probe's C = 2 (1 + 2n) sqrt(2 n_r (1 + 2 n_r)), with
    n_r the CLI's n_s, overflows from n_s = 6.7e153, long before its S: one
    line names it, not numpy's invalid multiply."""
    code, out, err = run_cli("state", "--kind", "bifreq-probe", "--set", "n_s=1e200")
    assert code == 2 and out == ""
    assert err == ("computation error: state --kind bifreq-probe: the "
                   "probe's C overflows at n_s = n_r = 1e+200, n = 0\n")


@pytest.mark.parametrize("setting,photons", [
    ("temperature=1e-10", [0.0, channel.bose_einstein(5e9, 2.7)]),
    ("nu=1e20", [0.0, 0.0])])
def test_summary_thermal_photons_past_the_expm1_overflow(setting, photons):
    """h nu / k T past 709.78 gives 0 thermal photons, without numpy's
    overflow warning: the anchor fails (exit 3) and stderr stays empty."""
    code, out, err = run_cli("summary", "--set", setting)
    assert code == 3 and err == "", err
    values = {a["name"]: a["value"] for a in json.loads(out)["anchors"]}
    assert [values["thermal_photons_300k"], values["thermal_photons_2p7k"]] == photons


def test_symmetric_link_needs_no_asymmetric_coefficient():
    """The overflow of the asymmetric 2 (e - a) does not stop a symmetric
    kind: at n_th = 5e307 tmst-sym prints the rows it printed before."""
    code, out, err = run_cli("teleport", "--resource", "tmst-sym", "--set", "n_th=5e307",
                             "--sweep", "L", "0", "10", "2")
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    assert [float(row["fidelity"]) for row in rows] == pytest.approx(
        [0.87870220057995474, 1.3888938888948891e-303], rel=1e-12)


@pytest.mark.parametrize("argv,count", [
    (("distill", "--sweep", "L", "0", "600", "10000"), 10000),
    (("teleport", "--resource", "2ps-prob-sym", "--sweep", "L", "0", "600", "10000"),
     10000),
    # the 2PS factor 1 + h is homogeneous in (alpha, beta, gamma, 1), so a
    # power of two scales it: no product overflows, and its terms are
    # positive on the separable links, where beta << alpha cancelled
    (("teleport", "--resource", "2ps-heur-asym", "--set", "n_th=1e160",
      "--sweep", "L", "0", "10", "2"), 2),
    (("teleport", "--resource", "2ps-heur-sym", "--set", "n_th=1e160",
      "--sweep", "L", "0", "10", "2"), 2),
    (("distill", "--geometry", "asym", "--set", "n_th=1e16",
      "--sweep", "L", "0", "10", "2"), 2),
])
def test_subtraction_sweeps_are_finite_without_a_warning(argv, count):
    code, out, err = run_cli(*argv)
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    assert len(rows) == count
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())


@pytest.mark.parametrize("argv,count", [
    # the ideal kinds are the finite-gain formulas at g = inf
    (("swap", "--sweep", "L", "0", "600", "10000"), 10000),
    (("teleport", "--resource", "swap", "--sweep", "L", "0", "600", "10000"), 10000),
    (("teleport", "--resource", "tmst-sym", "--sweep", "L", "0", "600", "10000"),
     10000),
    # at finite gain the entries are scaled by a power of two first
    (("teleport", "--resource", "tmst-sym-fg", "--set", "n_th=1e160",
      "--sweep", "L", "0", "10", "2"), 2),
    (("teleport", "--resource", "swap-fg", "--set", "n_th=1e160",
      "--sweep", "L", "0", "10", "2"), 2),
    (("negativity",), 61),
    (("negativity", "--sweep", "r", "2", "6", "5"), 5),
    (("illum",), 100),
    (("illum", "--sweep", "gamma", "0", "5", "11"), 11),
    (("bifreq",), 25),
    (("bifreq", "--sweep", "eta1", "0.1", "0.99", "11"), 11),
    (("bifreq", "--sweep", "n", "0", "5", "11"), 11),
    (("satellite",), 61),
] + [(("qfi", "--family", family), 1)
     for family in ("illum", "illum-classical", "bifreq", "bifreq-classical")])
def test_tables_without_a_warning(argv, count):
    code, out, err = run_cli(*argv)
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    assert len(rows) == count


def _link_budget_at_1e300_m(rows):
    """fspl_db in every row against 20 log10(4 pi d nu / c) at 60 digits: a
    product of d and nu overflowed at d = 1e300 (about 6,046 dB)."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 60
    try:
        for row in rows:
            exact = 20 * mp.log10(4 * mp.pi * mp.mpf(row["d"]) * mp.mpf(
                channel.TABLE1["nu"]) / channel.LIGHT_SPEED)
            assert abs(float(row["fspl_db"]) / float(exact) - 1.0) <= 1e-15, row
    finally:
        mp.dps = 15
    assert float(rows[-1]["d"]) == 1e300
    assert float(rows[-1]["fspl_db"]) == pytest.approx(6046.4, abs=0.1)


def _probe_separable_at_a_hot_bath(rows):
    """nu_minus against 60 digits; (n_th - 1)(n_th + 1) overflowed at 5e299
    and 1e300, where the probe is separable, nu_minus about 3."""
    assert float(rows[0]["nu_minus"]) == 1.0  # n_th = 1, bit for bit
    for row in rows:
        want = probe_nu_minus_mp(float(row["n_s"]), float(row["n_th"]))
        assert abs(float(row["nu_minus"]) / want - 1.0) <= 4e-16, row
    for row in rows[1:]:
        assert float(row["nu_minus"]) == pytest.approx(3.0, rel=1e-12)
        assert float(row["log_neg"]) == 0.0


def _subtraction_probability_at_tiny_tau(rows):
    """p2 against ps2_standard_form_mp; ((1 - tau)/tau)^2 overflowed at
    tau = 1e-300 before E_0 cancelled tau^2."""
    p = channel.TABLE1
    for row in rows:
        triple = channel.tmst_params(p["mu"], float(row["L"]), p["n_th"], p["eta_ant"],
                                     p["r"], p["n"], "sym")
        want = float(ps2_standard_form_mp(*triple, 1e-300, 60)[3])
        assert abs(float(row["p2"]) / want - 1.0) <= 1e-13, (row, want)


@pytest.mark.parametrize("argv,check", [
    (("satellite", "--set", "w0=1e-3", "--sweep", "d", "1e-6", "1e300", "50", "--log"),
     _link_budget_at_1e300_m),
    (("illum", "--sweep", "n_th", "1", "1e300", "3"), _probe_separable_at_a_hot_bath),
    (("distill", "--set", "tau=1e-300", "--sweep", "L", "0", "10", "2"),
     _subtraction_probability_at_tiny_tau),
], ids=["satellite-d-1e300", "illum-n_th-1e300", "distill-tau-1e-300"])
def test_float_range_edges_without_a_warning(argv, check):
    code, out, err = run_cli(*argv)
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    check(rows)


def test_tiny_length_keeps_the_environment_share():
    """The reflectivity comes from expm1, so a lossy state keeps the
    environment's share where mu L is far below an ulp of 1."""
    code, out, err = run_cli("channel", "--set", "n_th=1e160",
                             "--sweep", "L", "0", "1e-150", "3")
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    assert float(rows[-1]["L"]) == 1e-150
    assert float(rows[-1]["nu_minus_asym"]) > 1.0, rows[-1]


def test_heuristic_asym_fidelity_where_beta_is_far_below_alpha():
    """At n_th = 1e16 and L = 10 m the quartic N form of 1 + h printed
    -5.03e-17; the positive form gives the 1,200-digit value."""
    code, out, err = run_cli("teleport", "--resource", "2ps-heur-asym",
                             "--set", "n_th=1e16", "--sweep", "L", "0", "10", "2")
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    assert float(rows[-1]["L"]) == 10.0
    assert float(rows[-1]["fidelity"]) == pytest.approx(2.3329037732811784e-22,
                                                        rel=1e-12, abs=0.0)


def exact_subtraction_cells(kind, geometry, n_th, rows):
    """Each row's fidelity (kind "teleport") or p2 (kind "distill") at table1
    with n_th set, from the exact restatements of the subtraction."""
    p = channel.TABLE1
    cells = []
    for row in rows:
        triple = channel.tmst_params(p["mu"], float(row["L"]), n_th, p["eta_ant"],
                                     p["r"], p["n"], geometry)
        digits = 250 + 5 * int(math.log10(max(triple)))
        if kind == "teleport":
            cells.append(ps2_fidelity_mp(*triple, p["tau"], digits))
        else:
            cells.append(float(ps2_standard_form_mp(*triple, p["tau"], digits)[3]))
    return cells


@pytest.mark.parametrize("argv,geometry,n_th,column", [
    (("teleport", "--resource", "2ps-prob-sym"), "sym", 1e160, "fidelity"),
    (("teleport", "--resource", "2ps-prob-sym"), "sym", 1e300, "fidelity"),
    (("teleport", "--resource", "2ps-prob-asym"), "asym", 1e300, "fidelity"),
    (("distill", "--geometry", "sym"), "sym", 1e60, "p2"),
    (("distill", "--geometry", "sym"), "sym", 1e150, "p2"),
])
def test_subtraction_at_huge_thermal_occupation(argv, geometry, n_th, column):
    """The subtraction is scaled by a power of two: unscaled, (1 - alpha)(1 -
    beta) overflowed from n_th = 1e160 and P's den^3 from about 1e50."""
    code, out, err = run_cli(*argv, "--set", "n_th=%g" % n_th,
                             "--sweep", "L", "0", "10", "2")
    assert code == 0 and err == "", err
    rows = parse_csv(out)
    want = exact_subtraction_cells(argv[0], geometry, n_th, rows)
    np.testing.assert_allclose([float(row[column]) for row in rows], want,
                               rtol=1e-12, atol=0.0)


def test_distill_at_1e160_prints_no_nan():
    """P is E_0 of the subtracted state over den, scaled: every probabilistic
    cell is finite. theta_heur, near 8e310 at L = 10 m, still overflows
    in cm_validity."""
    code, out, _ = run_cli("distill", "--set", "n_th=1e160", "--sweep", "L", "0", "10", "2")
    assert code == 0 and "nan" not in out
    rows = parse_csv(out)
    for column in ("p2", "n_prob", "e_n_prob", "theta_prob"):
        assert all(math.isfinite(float(row[column])) for row in rows), column
    assert [float(row["p2"]) for row in rows] == pytest.approx(
        exact_subtraction_cells("distill", "sym", 1e160, rows), rel=1e-12, abs=0.0)


class TestDeterminism:
    def test_csv_reproducible_bit_identically(self):
        args = ("teleport", "--resource", "2ps-prob-sym",
                "--sweep", "L", "0", "400", "9")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_jobs_preserve_row_order_and_values(self):
        args = ("illum", "--sweep", "n_s", "0.1", "2.0", "8")
        _, serial, _ = run_cli(*args)
        _, parallel, _ = run_cli(*args, "--jobs", "3")
        assert serial == parallel

    @pytest.mark.parametrize("name", TABLES)
    def test_default_csv_matches_a_per_cell_format(self, name, monkeypatch, capsys):
        """The format of each column comes from its dtype, after the columns
        broadcast; formatting every cell by its own type gives the same bytes."""
        tables, text = [], cli._table_text
        monkeypatch.setattr(cli, "_table_text", lambda args, note, columns: (
            tables.append(columns) or text(args, note, columns)))
        assert cli.main([name]) == 0
        columns = [col.tolist() for col in np.broadcast_arrays(
            *map(np.atleast_1d, tables[0].values()))]
        expected = ",".join(tables[0]) + "\n" + "".join(
            ",".join("%.17g" % v if isinstance(v, float) else "%s" % v for v in row)
            + "\n" for row in zip(*columns))
        assert capsys.readouterr().out == expected


def per_cell_text(columns):
    """The CSV text of {name: array or scalar} formatted cell by cell: each
    float '%.17g' % v, any other cell '%s' % v."""
    arrays = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
    return ",".join(columns) + "\n" + "".join(
        ",".join("%.17g" % v if isinstance(v, float) else "%s" % v for v in row) + "\n"
        for row in zip(*(col.tolist() for col in arrays)))


def float_probe_tables():
    """Tables of seeded float64 bit patterns over every exponent, with
    subnormals, +-0, +-inf and NaN; every power of ten a double holds and
    both its neighbours; the edges of the array writer's range; halfway
    cases of 18 significant digits; and int, str and one-cell columns."""
    rng = np.random.default_rng(20240)
    patterns = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    powers = np.array([float("1e%d" % e) for e in range(-323, 309)])
    edges = np.array([1e-6, 1e-5, 1e-4, 1e16, 1e17, 1234567890123456.75, 0.0, -0.0,
                      np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308])
    near = np.concatenate([values for values in (powers, edges) for values in (
        values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf))])
    # f / 2**q, f odd, has q decimals ending in 5: 18 significant digits in
    # decade d = 17 - q, a tie at 17
    ties = np.concatenate([
        rng.integers(math.ceil(10.0 ** d * 2 ** (17 - d)) // 2,
                     min(10.0 ** (d + 1) * 2 ** (17 - d), 2.0 ** 53) // 2, 200) * 2 + 1
        for d in range(-6, 16)]) / 2.0 ** np.repeat(17 - np.arange(-6, 16), 200)
    floats = np.concatenate([patterns, near, -near, ties])
    floats = floats[:floats.size // 4 * 4]
    return [
        {"a": floats[0::4], "b": floats[1::4], "c": floats[2::4], "d": floats[3::4]},
        {"x": floats[:9000], "ok": np.arange(9000) % 2, "family": "illum",
         "big": np.arange(9000) + 2 ** 62, "n": 0.25, "flag": np.arange(9000) % 3 == 0},
        {"x": floats[:1], "y": 3.0},
        {"x": 1e-300, "y": "z", "z": 7},
        {"x": np.linspace(0.0, 600.0, 7), "f32": np.float32(0.1), "i": np.int64(-3)},
    ]


def check_csv_floats():
    """Every probe table's CSV text is its per-cell format."""
    csv_args = type("Args", (), {"format": "csv"})
    for columns in float_probe_tables():
        assert "".join(cli._table_text(csv_args, "", columns)) == per_cell_text(columns)


class TestCsvFloats:
    def test_probe_tables_reach_every_case(self):
        """The probes hold values whose 17-digit rounding carries into the
        next decade, and ties of 18 digits in every decade from -6 to 15."""
        table = float_probe_tables()[0]
        chosen = np.stack(list(table.values()), axis=1).ravel()[10 ** 5:]  # past the patterns
        values = [Decimal(v) for v in chosen.tolist() if v and math.isfinite(v)]
        assert any(Decimal("%.17g" % v).adjusted() > v.adjusted() for v in values)
        ties = {v.adjusted() for v in values
                if len(v.as_tuple().digits) == 18 and v.as_tuple().digits[-1] == 5}
        assert set(range(-6, 16)) <= ties

    def test_floats_match_a_per_cell_format(self):
        check_csv_floats()

    @pytest.mark.parametrize("target", ["X86_V4", "X86_V3"])
    def test_floats_match_on_the_lower_simd_target(self, target):
        """The same bytes with numpy dispatching below the target, whose
        log10 may round differently: it only guesses a decade."""
        if not child.cpu_features().get(target):
            pytest.skip("this CPU does not run numpy's %s target" % target)
        verdict = child.below_target(target)["csv_floats"]
        assert verdict is None, verdict


class TestCsvStreaming:
    def test_a_closed_pipe_ends_the_run_quietly(self):
        """A reader that takes 20 bytes and closes, as `head -c 20` does."""
        proc = subprocess.Popen([sys.executable, *child.CLI, "swap", "--sweep",
                                 "L", "0", "600", "200000"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=child.ENV)
        assert proc.stdout.read(20) == b"L,alpha,beta,gamma,a"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b""

    def test_a_large_table_never_holds_its_text(self, tmp_path):
        """Each block is written as it is formed: the peak of traced memory
        stays below the size of the file written."""
        out = tmp_path / "swap.csv"
        assert cli.main(["swap", "--sweep", "L", "0", "600", "3", "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            code = cli.main(["swap", "--sweep", "L", "0", "600", "100000",
                             "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < out.stat().st_size


class TestTeleportCommand:
    @pytest.mark.parametrize("kind", teleport.TeleportResource.KINDS)
    def test_one_expm1_pass_per_link(self, kind, monkeypatch):
        """u = -expm1(-mu L/2) is formed once for a table whose resource and
        bare twin share a link at L, and once per link for the swaps, whose
        links span L/2."""
        passes, math_map = [], channel.math_map

        def counted(fn, x):
            passes.append(fn is math.expm1)
            return math_map(fn, x)

        monkeypatch.setattr(channel, "math_map", counted)
        assert cli.main(["teleport", "--resource", kind, "--set", "inv_gain=0.1",
                         "--out", os.devnull]) == 0
        assert sum(passes) == (2 if kind.startswith("swap") else 1)

    def test_classical_crossing_near_479(self):
        code, out, _ = run_cli("teleport", "--resource", "tmst-asym",
                               "--sweep", "L", "470", "490", "21")
        assert code == 0
        rows = parse_csv(out)
        crossing = None
        for a, b in zip(rows, rows[1:]):
            if float(a["fidelity"]) >= 0.5 > float(b["fidelity"]):
                crossing = 0.5 * (float(a["L"]) + float(b["L"]))
        assert crossing is not None
        assert abs(crossing - 479.0) <= 1.0

    def test_json_report_structure(self):
        code, out, _ = run_cli("teleport", "--resource", "swap",
                               "--sweep", "L", "0", "100", "3",
                               "--format", "json")
        report = json.loads(out)
        assert report["columns"][0] == "L"
        assert len(report["rows"]) == 3
        assert "provenance" in report and "parameters" in report


    @pytest.mark.parametrize("kind", teleport.TeleportResource.KINDS)
    def test_bare_column_is_tmst_of_the_resource_geometry(self, kind):
        _, out, _ = run_cli("teleport", "--resource", kind,
                            "--sweep", "L", "0", "400", "3")
        sym = ("tmst-sym", "2ps-prob-sym", "2ps-heur-sym", "tmst-sym-fg")
        geometry = "sym" if kind in sym else "asym"
        bare = teleport.TeleportResource("tmst-" + geometry, 1.0, 0.01,
                                         1.44e-6, 1250.0)
        for row in parse_csv(out):
            assert float(row["fidelity_bare"]) == bare.fidelity(float(row["L"]))


class TestNegativityCommand:
    def test_zero_squeezing_row_flagged(self):
        _, out, _ = run_cli("negativity", "--sweep", "r", "0", "1", "3")
        rows = parse_csv(out)
        assert rows[0]["ok"] == "0"
        assert rows[0]["n_tmsv"] == "nan"
        assert rows[1]["ok"] == "1"

    def test_probabilistic_crossing_structure(self):
        _, out, _ = run_cli("negativity", "--sweep", "r", "0.05", "2.0", "40")
        gains = [float(r["dn_2ps_prob"]) for r in parse_csv(out)]
        assert gains[0] > 0.0 and gains[-1] < 0.0

    def test_roundtrip_recompute(self):
        _, out, _ = run_cli("negativity", "--sweep", "r", "0.2", "1.2", "6")
        from cvmw import distill
        for row in parse_csv(out):
            lam = np.tanh(float(row["r"]))
            assert float(row["n_tmsv"]) == pytest.approx(
                distill.tmsv_negativity(lam), rel=1e-15)
            assert float(row["p2"]) == pytest.approx(
                distill.PsTmsv(lam, 0.95, 1).success_probability(), rel=1e-15)


class TestStateCommand:
    def test_overflowing_coherent_amplitude_exits_2_without_a_warning(self):
        code, out, err = run_cli("state", "--kind", "coherent",
                                 "--set", "alpha_re=1.7e308")
        assert code == 2 and out == ""
        # one line, and no raw numpy RuntimeWarning before it
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("computation error:"), err

    def test_state_json_roundtrip(self):
        code, out, _ = run_cli("state", "--kind", "tmst", "--set", "r=0.8",
                               "--set", "n=0.05")
        assert code == 0
        state = core.GaussianState.from_json(out)
        np.testing.assert_allclose(state.sigma, core.tmst(0.8, 0.05).sigma)

    def test_output_file(self, tmp_path):
        target = tmp_path / "state.json"
        code, _, _ = run_cli("state", "--kind", "vacuum", "--out", str(target))
        assert code == 0
        state = core.GaussianState.from_json(target.read_text())
        assert state.n_modes == 1


class TestOtherCommands:
    def test_illum_gain_column(self):
        _, out, _ = run_cli("illum", "--sweep", "n_s", "0.5", "2.0", "4",
                            "--set", "n_th_bath=1.0")
        for row in parse_csv(out):
            assert float(row["gain"]) >= 1.0

    def test_default_illum_probe_sits_on_the_separability_boundary(self, capsys):
        """At n_th_bath = 1 the probe's nu_minus is exactly 1; no row may
        round it below 1 and report entanglement."""
        assert cli.main(["illum"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 100
        assert all(float(row["log_neg"]) == 0.0 for row in rows)

    def test_wide_illum_sweep_at_unit_bath_is_separable_on_every_row(self):
        code, out, err = run_cli("illum", "--sweep", "n_s", "0.01", "100", "1000")
        assert code == 0 and err == "", err
        rows = parse_csv(out)
        assert len(rows) == 1000
        assert all(float(row["log_neg"]) == 0.0 for row in rows)
        assert all(float(row["nu_minus"]) == 1.0 for row in rows)

    def test_illum_at_a_cold_bath_and_huge_signal_is_finite(self, capsys):
        """D over the larger eigenvalue subtracts nothing: no NaN and no raw
        warning at n_s = 5e5, and nu_minus holds its digits at n_s = 1e6."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["illum", "--set", "n_th_bath=1e-3",
                             "--sweep", "n_s", "1", "1e6", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert all(np.isfinite(float(cell)) for cell in row.values()), row
            assert float(row["log_neg"]) > 0.0
            assert float(row["nu_minus"]) == pytest.approx(
                probe_nu_minus_mp(float(row["n_s"]), 1e-3), rel=1e-14, abs=0.0)

    def test_channel_sweep_matches_library(self):
        _, out, _ = run_cli("channel", "--sweep", "L", "0", "500", "6")
        from cvmw import channel as chmod
        from cvmw.entanglement import pts_eigenvalues
        for row in parse_csv(out):
            ch = chmod.AirChannel(1.44e-6, float(row["L"]), 1250.0, 0.0)
            cm = chmod.lossy_tmst(ch, 1.0, 0.01, "asym")
            assert float(row["nu_minus_asym"]) == pytest.approx(
                pts_eigenvalues(cm)[0], rel=1e-14)

    def test_channel_table_forms_u_once(self, monkeypatch):
        # one expm1 pass over the grid for u = -expm1(-mu L/2), shared by
        # both geometries, and one for eta_env's -expm1(-mu L)
        passes = []
        math_map = channel.math_map

        def counted(fn, x):
            if fn is math.expm1:
                passes.append(np.size(x))
            return math_map(fn, x)
        monkeypatch.setattr(channel, "math_map", counted)
        code, out, _ = run_cli("channel", "--sweep", "L", "0", "500", "6")
        assert code == 0 and len(parse_csv(out)) == 6
        assert passes == [6, 6]

    def test_satellite_fspl(self):
        _, out, _ = run_cli("satellite", "--sweep", "d", "1000", "2000", "2")
        rows = parse_csv(out)
        assert float(rows[0]["fspl_db"]) == pytest.approx(106.4, abs=0.05)

    @pytest.mark.parametrize("family", ["illum", "illum-classical", "bifreq",
                                        "bifreq-classical"])
    def test_qfi_family_is_finite(self, family):
        code, out, err = run_cli("qfi", "--family", family)
        assert code == 0 and err == ""
        assert np.isfinite(float(parse_csv(out)[0]["h_numeric"]))

    def test_negativity_sweep_to_large_squeezing(self):
        code, out, err = run_cli("negativity", "--sweep", "r", "2", "6", "5")
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert len(rows) == 5
        assert all(np.isfinite(float(v)) for row in rows for v in row.values())

    def test_qfi_single_row(self):
        _, out, _ = run_cli("qfi", "--family", "illum",
                            "--set", "n_s=0.4", "--set", "n_th_bath=0.6",
                            "--set", "gamma=0.3")
        row = parse_csv(out)[0]
        assert float(row["h_numeric"]) == pytest.approx(
            float(row["h_closed"]), rel=1e-6)

    def test_profile_file_preset(self, tmp_path):
        profile = tmp_path / "custom.txt"
        profile.write_text("[channel]\nmu = 1.44e-6\nn_th = 1250\n"
                           "[source]\nr = 1.0\nn = 0.01\n"
                           "[distill]\ntau = 0.95\neta_ant = 0\n")
        code, out, _ = run_cli("teleport", "--resource", "tmst-asym",
                               "--preset", str(profile),
                               "--sweep", "L", "0", "100", "2")
        assert code == 0
        assert len(parse_csv(out)) == 2


class TestJsonOutput:
    def test_report_names_the_argv_main_parsed(self, monkeypatch, capsys):
        # a host process's own argv is not the command
        monkeypatch.setattr(sys, "argv", ["host", "--its-own", "flags"])
        argv = ["channel", "--sweep", "L", "0", "10", "2", "--format", "json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["command"] == " ".join(argv)
        monkeypatch.setattr(sys, "argv", ["cvmw", "summary", "--set", "r=1"])
        cli.main()
        assert json.loads(capsys.readouterr().out)["command"] == "summary --set r=1"

    @pytest.mark.parametrize("argv", [[name, "--format", "json"] for name in TABLES]
                             + [["qfi", "--family", "bifreq", "--format", "json"],
                                ["summary"], ["state", "--kind", "tmst"]],
                             ids=lambda argv: "-".join(argv[:3:2]))
    def test_json_parses_strictly(self, argv, capsys):
        # RFC 8259 has no NaN or Infinity: a non-finite cell is null
        def reject(token):
            raise ValueError("non-finite JSON token %s" % token)

        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        if argv[0] == "negativity":
            assert report["rows"][0]["ok"] == 0 and report["rows"][0]["n_tmsv"] is None
        if argv[:3] == ["qfi", "--family", "bifreq"]:
            assert report["rows"][0]["h_closed"] is None

    def test_state_with_an_infinite_entry_is_a_computation_error(self, capsys):
        # sqrt(2) 1.7e308 overflows the displacement to inf
        assert cli.main(["state", "--kind", "coherent", "--set", "alpha_re=1.7e308"]) == 2
        assert capsys.readouterr().out == ""
