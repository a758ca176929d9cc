"""cvmw benchmark: four closed-loop, single-client workloads.

    python3 bench/run.py --workload {cli-cold,sweep,solve,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; cvmw is imported from `src/`. The
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`. The line before it is a JSON report of how the numbers
were made (machine, versions, thread setting, seed, set-up samples, the
tail percentile and its sample count, source lines per module).

Every worker process runs with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1.
Set-up time is the median over SETUP_SAMPLES fresh workers, after one
discarded worker that compiles bytecode and warms the file cache. The
measuring worker is the first; the others are launched between its ops,
spread over the run, while it waits.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from tracing import SUBCOMMANDS, import_probe  # noqa: E402

SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "sweep", "solve", "oracle")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
DEADLINE_S = 170


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREADS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def on_deadline(signum, frame):
    raise TimeoutError("benchmark ran out of time")


class Workers:
    """Launches worker processes and times their set-up; kills any left on exit."""

    def __init__(self, args, env):
        self.args, self.env, self.live = args, env, []

    def start(self, extra):
        """Launch a worker and wait for its `ready` line; returns (proc, set-up s)."""
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--trace", str(self.args.trace)] + extra
        start = time.perf_counter()
        # a session of its own, so kill() also ends the CLI processes it runs
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.live.append(proc)
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("worker failed during set-up")
        return proc, setup

    def setup_sample(self):
        proc, setup = self.start(["--setup-only"])
        self.finish(proc)
        return setup

    def finish(self, proc):
        out, _ = proc.communicate()
        self.live.remove(proc)
        if proc.returncode != 0:
            raise RuntimeError("worker exited with %d" % proc.returncode)
        return out

    def run(self, setup_samples):
        """The measuring worker. Between its ops it asks for set-up samples,
        which are taken here while it waits. Returns (result, set-up times)."""
        proc, setup = self.start(["--setup-samples", str(setup_samples)])
        setups, line = [setup], ""
        for line in proc.stdout:
            if not line.startswith("setup "):
                break
            setups += [self.setup_sample() for _ in range(int(line.split()[1]))]
            proc.stdin.write("go\n")
            proc.stdin.flush()
        self.finish(proc)
        return json.loads(line), setups

    def kill(self):
        for proc in self.live:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        self.live = []


def source_lines():
    return {path.stem: sum(1 for _ in path.open(encoding="utf-8"))
            for path in sorted((SRC / "cvmw").glob("*.py"))}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def end_to_end(res, setup):
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_ms": (1e3 * res["latency_p50_s"], "ms"),
        "latency_tail_ms": (1e3 * res["latency_tail_s"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res, imports):
    traced = res["ops_per_s"]
    out = dict(imports)
    out.update(res["counts"])
    out.update(res["spans"])
    for sub in SUBCOMMANDS:
        out["cli.%s.rows_per_s" % sub] = (res["rows_per_s"][sub], "1/s")
    out["trace.ops_per_s"] = (traced, "1/s")
    out["trace.untraced_ops_per_s"] = (res["untraced_ops_per_s"], "1/s")
    out["trace.overhead_share"] = (1.0 - traced / res["untraced_ops_per_s"], "1")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cvmw" / "__init__.py").is_file():
        sys.stderr.write("error: no cvmw sources under %s\n" % SRC)
        return 2

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    # every process of the run shares one core, so the machine-speed probe
    # and the ops it scales run where the other tenants' load is the same
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = worker_env()
    workers = Workers(args, env)
    try:
        imports = import_probe(env, IMPORT_SAMPLES) if args.trace else {}
        workers.setup_sample()  # discarded: compiles bytecode, warms the file cache
        res, setups = workers.run(0 if args.trace else SETUP_SAMPLES - 1)
    finally:
        workers.kill()
    signal.alarm(0)

    # set-up on the op times' scale: the samples are spread over the run, so
    # the run's mean machine-speed factor applies to them as to the ops
    setup = statistics.median(setups) * res["time_scale"]
    metrics = per_layer(res, imports) if args.trace else end_to_end(res, setup)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS, "nproc": os.cpu_count(),
        "pinned_cpu": cpu, "versions": res["versions"],
        "git_commit": git_commit(), "source_lines": source_lines(),
        "setup_samples_s": setups, "time_scale": res["time_scale"],
        "raw_ops_per_s": res["raw_ops_per_s"], "cycles": res["cycles"],
        "error_rate": {"value": res["failed"] / res["attempted"], "unit": "1"},
        "latency_tail": {"percentile": res["tail_percentile"], "samples": res["samples"]},
        "known_defect_error": res.get("known_defect_error"),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        sys.exit(1)
