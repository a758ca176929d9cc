"""The one home of the tests that start a Python child. The tests run the
CLI in process (`tests.test_cli.run_cli`); a child is started only where
the process itself is the subject: the exit code and bytes of a fresh
`python -W error -m cvmw.cli`, a reader that closes the pipe, what an
import loads, the Fock oracle with scipy blocked, and numpy held below a
SIMD target, which acts only when a process starts.
"""

import functools
import json
import os
import subprocess
import sys

import cvmw

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a child imports the same cvmw as the tests, installed or not, and tests
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cvmw.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, ROOT, os.environ.get("PYTHONPATH")))))

# `python -m cvmw.cli` with every warning an error, as the arguments
# after the interpreter
CLI = ("-W", "error", "-m", "cvmw.cli")

# NPY_DISABLE_CPU_FEATURES value that takes numpy below each target: the
# AVX-512 groups go with X86_V4, since numpy would dispatch to them otherwise
BELOW = {"X86_V4": "X86_V4 AVX512_ICL AVX512_SPR",
         "X86_V3": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def run(args, env=ENV):
    """A child with args after the interpreter, run from the repository
    root: its CompletedProcess, with text stdout and stderr."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT)


def cli(*argv):
    """`python -W error -m cvmw.cli argv` in a fresh process."""
    return run(CLI + argv)


BELOW_TARGET = """\
import json, sys, traceback
from tests.child import cpu_features
assert not cpu_features()[%r]
from tests.test_cli import check_csv_floats
from tests.test_golden import outputs
try:
    check_csv_floats()
    csv_floats = None
except Exception:
    csv_floats = traceback.format_exc()
json.dump({"golden": outputs(), "csv_floats": csv_floats}, sys.stdout)
"""


@functools.cache
def below_target(target):
    """One child with numpy dispatching below target, shared by the tests
    that read it: {"golden": name -> (exit code, stdout) of every golden
    argv, "csv_floats": None, or the traceback of check_csv_floats}."""
    proc = run(["-c", BELOW_TARGET % target],
               env=dict(ENV, NPY_DISABLE_CPU_FEATURES=BELOW[target]))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
