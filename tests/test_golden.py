"""Default CLI outputs against the golden files in tests/golden/, byte for
byte, in this process and under each lower SIMD target of numpy.

Regenerate the files, when a change moves output bits on purpose, with
`PYTHONPATH=src python -m tests.test_golden` from the repository root.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cvmw
from cvmw import cli, teleport

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cvmw.__file__)))


def _argvs():
    """file name -> argv: the CSV and JSON of every table's default run, of
    the other teleport kinds, distill geometry and qfi families, the JSON of
    every state kind, and the table1 summary."""
    tables = [[name] for name, entry in cli.COMMANDS.items() if "table" in entry]
    tables += [["teleport", "--resource", kind]
               for kind in teleport.TeleportResource.KINDS[1:]]
    tables += [["distill", "--geometry", "asym"]]
    tables += [["qfi", "--family", family] for family in list(cli.QFI_FAMILIES)[1:]]
    argvs = {"-".join(argv[:1] + argv[2:]) + "." + fmt: argv + ["--format", fmt]
             for argv in tables for fmt in ("csv", "json")}
    argvs.update({"state-%s.json" % kind: ["state", "--kind", kind]
                  for kind in cli.STATES})
    argvs["summary-table1.json"] = ["summary", "--preset", "table1"]
    return argvs


ARGVS = _argvs()

# Cells that numpy still computes, since math raises at an input where numpy
# gives inf or 0, and the ulps by which each may move between numpy's SIMD
# targets at the golden parameters. numpy's own accuracy tests allow each
# float64 call 1 ulp, so two targets differ by up to 2 ulps per call.
ULP_BUDGETS = {
    # entanglement.log_negativity_from_nu: np.log2, inf at nu_minus = 0
    **{("channel", column): 2 for column in ("log_neg_asym", "log_neg_sym")},
    ("illum", "log_neg"): 2,
    **{(stem, column): 2 for stem in ("distill", "distill-asym")
       for column in ("e_n_bare", "e_n_prob", "e_n_heur")},
    # channel.bose_einstein: 1 / np.expm1, 0 at a huge h nu / k T; the
    # quotient adds one rounding
    **{("summary-table1", anchor): 3
       for anchor in ("thermal_photons_300k", "thermal_photons_2p7k")},
    # bifreq.bifreq_probe: np.cosh and np.sinh of 2 np.arcsinh(sqrt(2 n_r)),
    # inf near the top of the float range; at n_r = 1 the arcsinh's 2 ulps
    # move the cosh by 5 more
    ("state-bifreq-probe", "sigma"): 8,
    # core.tmst: np.cosh and np.sinh, times 1 + 2n for tmst; kept on numpy
    # until the states are built physical by construction
    ("state-tmsv", "sigma"): 2,
    ("state-tmst", "sigma"): 3,
}


def outputs(names=ARGVS):
    """name -> (exit code, stdout) of cli.main at each golden argv."""
    out = {}
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(ARGVS[name])
        out[name] = code, buf.getvalue()
    return out


def _cells(text):
    """{position: (column, value)} of a CSV table or a JSON report. A JSON
    leaf's column is its innermost key, or the name of the anchor it
    belongs to."""
    if not text.startswith("{"):
        header, *rows = text.splitlines()
        names = header.split(",")
        return {(i, name): (name, cell) for i, row in enumerate(rows)
                for name, cell in zip(names, row.split(","))}
    cells = {}

    def walk(node, path, column):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,), node.get("name", key))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, path + (i,), column)
        else:
            cells[path] = column, node
    walk(json.loads(text), (), None)
    return cells


def check_golden(name, code, text):
    """The output equals its golden file byte for byte, except that a cell
    with an ulp budget may move within it."""
    assert code == 0, name
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        golden = fh.read()
    if text == golden:
        return
    stem = os.path.splitext(name)[0]
    budgets = {column: ulps for (file_stem, column), ulps in ULP_BUDGETS.items()
               if file_stem == stem}
    assert budgets, "%s differs from its golden file" % name
    got, want = _cells(text), _cells(golden)
    assert got.keys() == want.keys(), name
    for position, (column, value) in want.items():
        cell = got[position][1]
        if column in budgets and cell is not None and value is not None:
            np.testing.assert_array_max_ulp(float(cell), float(value), budgets[column])
        else:
            assert cell == value, (name, position, cell, value)


@pytest.mark.parametrize("name", list(ARGVS))
def test_default_output_matches_its_golden_file(name):
    check_golden(name, *outputs([name])[name])


# NPY_DISABLE_CPU_FEATURES value that takes numpy below each target: the
# AVX-512 groups go with X86_V4, since numpy would dispatch to them otherwise
BELOW = {"X86_V4": "X86_V4 AVX512_ICL AVX512_SPR",
         "X86_V3": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("target", list(BELOW))
def test_golden_outputs_on_the_lower_simd_target(target):
    """One subprocess with numpy dispatching below the target prints the
    golden outputs, within the budgets above."""
    if not _cpu_features().get(target):
        pytest.skip("this CPU does not run numpy's %s target" % target)
    script = ("import json, sys\n"
              "from tests.test_golden import _cpu_features, outputs\n"
              "assert not _cpu_features()[%r]\n"
              "json.dump(outputs(), sys.stdout)\n" % target)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BELOW[target],
               PYTHONPATH=os.pathsep.join(
                   filter(None, (SRC, ROOT, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert runs.keys() == ARGVS.keys()
    for name, (code, text) in runs.items():
        check_golden(name, code, text)


def write_goldens():
    for name, (code, text) in outputs().items():
        assert code == 0, name
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    write_goldens()
