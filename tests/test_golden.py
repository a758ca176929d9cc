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

def outputs(names=ARGVS):
    """name -> (exit code, stdout) of cli.main at each golden argv."""
    out = {}
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(ARGVS[name])
        out[name] = code, buf.getvalue()
    return out


def check_golden(name, code, text):
    """The output equals its golden file byte for byte."""
    assert code == 0, name
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        golden = fh.read()
    assert text == golden, "%s differs from its golden file" % name


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
    golden outputs."""
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
