"""Default CLI outputs against the golden files in tests/golden/, byte for
byte, in this process and under each lower SIMD target of numpy.

Regenerate the files, when a change moves output bits on purpose, with
`PYTHONPATH=src python -m tests.test_golden` from the repository root.
"""

import contextlib
import io
import os

import pytest

from cvmw import cli, teleport
from tests import child

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


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


@pytest.mark.parametrize("target", list(child.BELOW))
def test_golden_outputs_on_the_lower_simd_target(target):
    """The child with numpy dispatching below the target prints the golden
    outputs."""
    if not child.cpu_features().get(target):
        pytest.skip("this CPU does not run numpy's %s target" % target)
    runs = child.below_target(target)["golden"]
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
