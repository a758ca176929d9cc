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
        ("qfi", "--sweep", "n_s", "0.1", "1", "3"),
    ])
    def test_sweep_variable_outside_table_is_usage_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert "cannot sweep" in err

    @pytest.mark.parametrize("argv", [
        ("teleport", "--resource", "tmst-asym-fg", "--set", "inv_gain=0"),
        ("summary", "--set", "r=0"),
        ("bifreq", "--set", "eta1=1.0"),
    ])
    def test_arithmetic_errors_exit_2_without_traceback(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert "Traceback" not in err
        assert "computation error" in err

    @pytest.mark.parametrize("command,setting", [("channel", "mu=nan"),
                                                 ("teleport", "n_th=-5")])
    def test_out_of_range_channel_is_computation_error(self, command, setting):
        code, out, err = run_cli(command, "--set", setting)
        assert code == 2
        assert out == ""
        assert "Warning" not in err


class TestDeterminism:
    def test_csv_reproducible_bit_identically(self):
        args = ("teleport", "--resource", "2ps-prob-sym",
                "--sweep", "L", "0", "400", "9")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_seed_has_no_effect(self):
        base = ("negativity", "--sweep", "r", "0.1", "1.0", "7")
        _, out1, _ = run_cli(*base)
        _, out2, _ = run_cli("--seed", "12345", *base)
        assert out1 == out2

    def test_jobs_preserve_row_order_and_values(self):
        args = ("illum", "--sweep", "n_s", "0.1", "2.0", "8")
        _, serial, _ = run_cli(*args)
        _, parallel, _ = run_cli(*args, "--jobs", "3")
        assert serial == parallel


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
