"""One benchmark worker process: set up, run one workload, report.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--setup-only | --setup-samples K]

Prints `ready` once the cvmw imports and a warm-up call are done (run.py
times set-up up to that line), then one JSON line with the counts, the
latency distribution, the machine-speed scale and the peak memory. Between
ops it may print `setup N` and wait for `go` on stdin, while run.py times N
fresh workers; K such samples are spread over the run. Only the ops are
timed: checks run with the clock stopped and, in traced runs, with the
tracer paused.
"""

import argparse
import importlib
import json
import math
import random
import resource
import sys
import time
import traceback
from collections import Counter

import calibration
import workloads
from tracing import SUBCOMMANDS, Tracer

WORKLOADS = {"cli-cold": workloads.CliCold, "sweep": workloads.Sweep,
             "solve": workloads.Solve, "oracle": workloads.Oracle}

TAIL_PERCENTILE = 95.0
TAIL_BEYOND = 10   # samples that must lie above the reported tail
PROBE_INTERVAL_S = 0.1


def weighted_quantiles(samples):
    """(p50, tail, tail percentile, sample count) of (value, weight) pairs.

    Each pair stands for `weight` samples of `value`. The tail is the 95th
    percentile, or the highest percentile with TAIL_BEYOND samples above it
    when the run has fewer than 200 samples.
    """
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    if not total:
        return 0.0, 0.0, 0.0, 0

    def at_rank(rank):
        seen = 0
        for value, weight in samples:
            seen += weight
            if seen > rank:
                return value
        return samples[-1][0]

    tail_rank = max(0, min(math.ceil(TAIL_PERCENTILE / 100.0 * total), total - TAIL_BEYOND) - 1)
    return at_rank((total - 1) // 2), at_rank(tail_rank), 100.0 * (tail_rank + 1) / total, total


def cycle_count(cls, seconds):
    """Whole cycles a run of `seconds` makes. It depends on the workload and
    `seconds` only, never on how fast the program runs, so two versions of
    cvmw run the same ops and report the same percentiles of them."""
    return max(cls.min_cycles, round(seconds / cls.cycle_s))


def setup_schedule(n_ops, samples):
    """Set-up samples to take after each op: `samples` in all, spread evenly
    over the run."""
    return [(i + 1) * samples // n_ops - i * samples // n_ops for i in range(n_ops)]


def request_setups(count):
    """Ask run.py for `count` fresh-worker set-up samples and wait until they
    are done. The clock is stopped: they run between two ops."""
    print("setup %d" % count, flush=True)
    if sys.stdin.readline().strip() != "go":
        raise RuntimeError("run.py did not answer a set-up request")


def run_loop(workload, seed, cycles, tracer=None, setup_samples=0):
    """`cycles` whole cycles, so every run covers the same mix of ops. Op
    times are scaled by the machine-speed probe taken before and after each
    stretch of PROBE_INTERVAL_S (see calibration.py). `setup_samples` set-up
    samples are taken between ops, spread evenly over the run."""
    rng = random.Random(seed)
    ops = [op for _ in range(cycles) for op in workload.cycle(rng)]
    setups = setup_schedule(len(ops), setup_samples)
    latencies, attempted, failed, completed = [], 0, 0, 0
    pending, op_time, scaled_total = [], 0.0, 0.0
    cli_rows, cli_time = Counter(), Counter()
    last_probe, last_probe_at = calibration.probe(), time.perf_counter()

    def flush():
        nonlocal last_probe, last_probe_at, scaled_total
        now = calibration.probe()
        factor = calibration.scale(0.5 * (last_probe + now))
        for weight, elapsed in pending:
            scaled_total += factor * elapsed
            latencies.append((factor * elapsed / weight, weight))
        pending.clear()
        last_probe, last_probe_at = now, time.perf_counter()

    for op, due in zip(ops, setups):
        cli_before = tracer.stats["cli.main"][1] if tracer else 0.0
        start = time.perf_counter()
        try:
            out = op.run(tracer)
        except Exception:
            traceback.print_exc()
            out = None
        elapsed = time.perf_counter() - start
        op_time += elapsed
        attempted += op.weight
        # an op that raised is timed too, so every run has the same samples
        pending.append((op.weight, elapsed))
        if tracer:
            tracer.enabled = False
            cli_rows[op.label] += op.rows
            cli_time[op.label] += tracer.stats["cli.main"][1] - cli_before
        try:
            bad = op.weight if out is None else op.check(out)
        except Exception:
            traceback.print_exc()
            bad = op.weight
        if tracer:
            tracer.enabled = True
        failed += bad
        if out is not None:
            completed += op.weight
        if due or time.perf_counter() - last_probe_at >= PROBE_INTERVAL_S:
            flush()
        if due:
            request_setups(due)
            last_probe, last_probe_at = calibration.probe(), time.perf_counter()
    flush()
    return {"attempted": attempted, "failed": failed, "op_time": op_time,
            "time_scale": scaled_total / op_time if op_time else 1.0,
            "ops_per_s": completed / scaled_total,
            "raw_ops_per_s": completed / op_time,
            "latencies": latencies, "cycles": cycles,
            "cli_rows": cli_rows, "cli_time": cli_time}


def count_probe(tracer):
    """Solver and family evaluation counts at the fixed table1 operating point.

    Fixed inputs, so the counts repeat exactly between runs and seeds.
    """
    teleport, channel = workloads.lazy("teleport"), workloads.lazy("channel")
    illumination, estimation = workloads.lazy("illumination"), workloads.lazy("estimation")
    p = workloads.TABLE1
    for kind in workloads.KINDS:
        teleport.TeleportResource(kind, p["r"], p["n"], p["mu"], p["n_th"], p["eta_ant"],
                                  p["tau"], p["inv_gain"]).classical_limit_distance()
    ch = channel.AirChannel(p["mu"], 0.0, p["n_th"], p["eta_ant"])
    for geometry in ("asym", "sym"):
        channel.l_max(ch, p["r"], p["n"], geometry)
    estimation.gaussian_qfi(illumination.received_family(
        illumination.QiParams(1.0, 1.0, 0.3, 1e-4)))
    counts = tracer.nested_counts()
    tracer.reset()
    return counts


def versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-samples", type=int, default=0,
                        help="fresh-worker set-up samples to ask run.py for between ops")
    args = parser.parse_args()

    cls = WORKLOADS[args.workload]
    for name in cls.imports:
        importlib.import_module("cvmw." + name)
    workload = cls()
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"versions": versions()}
    cycles = cycle_count(cls, args.seconds)
    if args.trace:
        # an untraced quarter first, for the tracing overhead
        plain = run_loop(workload, args.seed, cycle_count(cls, args.seconds / 4.0))
        tracer = Tracer().install()
        result["counts"] = count_probe(tracer)
        run = run_loop(workload, args.seed, cycles, tracer)
        result["untraced_ops_per_s"] = plain["ops_per_s"]
        result["spans"] = tracer.per_op_metrics(run["attempted"])
        result["rows_per_s"] = {
            sub: run["cli_rows"][sub] / run["cli_time"][sub] if run["cli_time"][sub] else 0.0
            for sub in SUBCOMMANDS}
    else:
        run = run_loop(workload, args.seed, cycles, setup_samples=args.setup_samples)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cls.children_rss
                               else resource.RUSAGE_SELF)
    p50, tail, tail_pct, samples = weighted_quantiles(run["latencies"])
    result.update(attempted=run["attempted"], failed=run["failed"],
                  ops_per_s=run["ops_per_s"], raw_ops_per_s=run["raw_ops_per_s"],
                  op_time=run["op_time"], time_scale=run["time_scale"],
                  cycles=run["cycles"], latency_p50_s=p50, latency_tail_s=tail,
                  tail_percentile=tail_pct, samples=samples,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    if hasattr(workload, "known_defect"):
        result["known_defect_error"] = workload.known_defect()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
