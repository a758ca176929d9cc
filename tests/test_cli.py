import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cvmw
from cvmw import cli, core, teleport

# the CLI subprocess imports the same cvmw as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cvmw.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cvmw.cli", *args],
                          capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


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
        # squeezing so strong that the float covariance matrix is unphysical
        ("state", "--kind", "tmsv", "--set", "r=12"),
        ("state", "--kind", "tmsv", "--set", "r=9"),
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

    def test_a_failed_point_fails_the_whole_table(self):
        # the last of three received states is too close to pure for the
        # Monras solve: no row is printed, no NaN cell stands in for it
        code, out, err = run_cli("bifreq", "--sweep", "eta1", "0.5", "0.999999999", "3")
        assert code == 2
        assert out == ""
        assert "regularization required" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("distill", "--set", "tau=1"),
        ("teleport", "--resource", "2ps-prob-sym", "--set", "tau=0"),
        ("swap", "--sweep", "L", "-10", "100", "3"),
        ("channel", "--sweep", "L", "0", "inf", "3"),
    ])
    def test_bad_row_in_an_array_sweep_is_computation_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "computation error" in err
        assert "Warning" not in err and "Traceback" not in err

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

    def test_bifreq_row_lets_programming_errors_through(self, monkeypatch):
        def broken(params):
            raise TypeError("broken h_q_bifreq")

        monkeypatch.setattr(cli.bifreq, "h_q_bifreq", broken)
        with pytest.raises(TypeError, match="broken"):
            cli.main(["bifreq", "--out", os.devnull])


def outside(domain):
    """The floats just below and just above an interval such as "(0, 1]"."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
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

    def test_bifreq_probe_reads_n_s(self, capsys):
        from cvmw import bifreq
        assert cli.main(["state", "--kind", "bifreq-probe", "--set", "n_s=2"]) == 0
        state = core.GaussianState.from_json(capsys.readouterr().out)
        expected = bifreq.bifreq_probe(bifreq.BifreqParams(0.9, 0.0, 2.0, 0.01, 1250.0))
        np.testing.assert_array_equal(state.sigma, expected.sigma)

    def test_help_ends_with_the_table(self, capsys):
        for name in ["state", "summary"] + list(cli.COMMANDS):
            assert cli.main([name, "--help"]) == 0
            lines = capsys.readouterr().out.rstrip("\n").split("\n")
            tail = lines[-len(cli.PARAMS):]
            assert [line.split()[0] for line in tail] == list(cli.PARAMS), name

    def test_readme_table_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            rows = [line for line in fh if line.startswith("| `")]
        for key, (_, domain, _) in cli.PARAMS.items():
            assert any(row.startswith("| `%s` |" % key) and domain in row
                       for row in rows), key


def test_cli_paths_load_no_scipy():
    """With scipy blocked: every cvmw module, every subcommand's default run,
    the numeric classical-limit roots and the library functions that once
    needed scipy (mode synthesis, the path integrals, the qCRB root)."""
    runs = [["summary", "--preset", "table1"], ["state", "--kind", "tmst"],
            ["qfi"]] + [[name] for name in cli.COMMANDS if name != "qfi"]
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "sys.modules['scipy'] = None",
        "import cvmw",
        "for info in pkgutil.iter_modules(cvmw.__path__):",
        "    importlib.import_module('cvmw.' + info.name)",
        "from cvmw import bifreq, channel, cli",
        "for argv in %r:" % (runs,),
        "    assert cli.main(argv + ['--out', %r]) == 0, argv" % (os.devnull,),
        "from cvmw.teleport import TeleportResource",
        "link = (1.0, 0.01, 1.44e-6, 1250.0)",
        "for kind in ('2ps-prob-sym', '2ps-heur-asym'):",
        "    TeleportResource(kind, *link).classical_limit_distance()",
        "TeleportResource('swap-fg', *link, inv_gain=0.008,",
        "                 theta=1.0).classical_limit_distance()",
        "assert len(bifreq.jpa_synthesis(2.0)) == 7",
        "eta, n_eff = channel.eta_env_inhomogeneous(",
        "    lambda x: 1e-5 * (1.0 + x / 100.0), lambda x: 100.0 + x, 100.0)",
        "assert 150.0 < n_eff < 200.0, n_eff",
        "root, bracket = bifreq.qcrb_saturating_noise(0.9, 2.0)",
        "assert bracket[0] <= root <= bracket[1], (root, bracket)",
        "assert abs(bifreq.qcrb_gap(0.9, 2.0, root)) < 1e-6",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
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


class TestTeleportCommand:
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

    def test_channel_sweep_matches_library(self):
        _, out, _ = run_cli("channel", "--sweep", "L", "0", "500", "6")
        from cvmw import channel as chmod
        from cvmw.entanglement import pts_eigenvalues
        for row in parse_csv(out):
            ch = chmod.AirChannel(1.44e-6, float(row["L"]), 1250.0, 0.0)
            cm = chmod.lossy_tmst(ch, 1.0, 0.01, "asym")
            assert float(row["nu_minus_asym"]) == pytest.approx(
                pts_eigenvalues(cm)[0], rel=1e-14)

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
    @pytest.mark.parametrize("argv", [[name, "--format", "json"] for name in cli.COMMANDS]
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_state_with_an_infinite_entry_is_a_computation_error(self, capsys):
        # sqrt(2) 1.7e308 overflows the displacement to inf
        assert cli.main(["state", "--kind", "coherent", "--set", "alpha_re=1.7e308"]) == 2
        assert capsys.readouterr().out == ""
