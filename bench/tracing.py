"""Spans around calls into cvmw, installed from outside the package.

The tracer wraps public callables of the cvmw modules, replacing every
module-level binding of the same object (so `from .x import f` copies are
wrapped too) and class attributes for methods. It keeps per-name totals in
memory: calls, wall time and the time spent in wrapped children, from which
self time follows. Names a later version of cvmw no longer has are skipped
and their metrics read zero.
"""

import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import time

MODULES = ("core", "entanglement", "channel", "distill", "teleport",
           "estimation", "illumination", "bifreq", "fock", "cli")

# (module, attribute path) of every traced callable, grouped by layer.
TARGETS = (
    ("cli", "main"),
    ("core", "GaussianState.__init__"),
    ("entanglement", "BipartiteCM.__init__"),
    ("entanglement", "pts_eigenvalues"),
    ("entanglement", "negativity"),
    ("entanglement", "log_negativity"),
    ("entanglement", "cm_validity"),
    ("channel", "lossy_tmst"),
    ("channel", "l_max"),
    ("distill", "ps2_gaussian"),
    ("distill", "ps2_heuristic"),
    ("distill", "swap_symmetric"),
    ("teleport", "TeleportResource.fidelity"),
    ("teleport", "TeleportResource.classical_limit_distance"),
    ("teleport", "fidelity_gaussian"),
    ("teleport", "fidelity_2ps_general"),
    ("teleport", "fidelity_heuristic"),
    ("teleport", "fidelity_swapped"),
    ("teleport", "fidelity_finite_gain"),
    ("teleport", "regaussify"),
    ("estimation", "GaussianFamily.__call__"),
    ("estimation", "gaussian_qfi"),
    ("illumination", "h_q"),
    ("bifreq", "bifreq_received"),
    ("bifreq", "h_q_bifreq"),
    ("bifreq", "ratio"),
    ("fock", "tmst_density"),
    ("fock", "negativity_fock"),
    ("fock", "gaussian_density"),
)

# Solver counts: calls of the inner span made while the outer span is open.
NESTED = {
    "teleport.classical_limit_distance.fidelity_evals":
        ("teleport.TeleportResource.classical_limit_distance",
         "teleport.TeleportResource.fidelity"),
    "channel.l_max.evals": ("channel.l_max", "channel.lossy_tmst"),
    "estimation.gaussian_qfi.family_evals":
        ("estimation.gaussian_qfi", "estimation.GaussianFamily.__call__"),
}

SUBCOMMANDS = ("state", "negativity", "illum", "bifreq", "teleport", "distill",
               "swap", "channel", "satellite", "qfi", "summary")


def span_name(module, path):
    return "%s.%s" % (module, path)


def metric_name(name):
    """Span name as used in metric names: dunder methods lose their underscores."""
    return re.sub(r"__(\w+)__", r"\1", name)


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stats = {span_name(*t): [0, 0.0, 0.0] for t in TARGETS}
        self.nested = {key: 0 for key in NESTED}
        self._stack = []

    def _wrap(self, name, fn):
        stats, stack, nested = self.stats[name], self._stack, []
        for key, (outer, inner) in NESTED.items():
            if inner == name:
                nested.append((key, outer))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            for key, outer in nested:
                if any(frame[0] == outer for frame in stack):
                    self.nested[key] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return span

    def install(self):
        mods = {m: importlib.import_module("cvmw." + m) for m in MODULES}
        for module, path in TARGETS:
            owner = mods[module]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                continue
            wrapped = self._wrap(span_name(module, path), fn)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        return self

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        for key in self.nested:
            self.nested[key] = 0

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "nested": dict(self.nested)}

    def merge(self, snap):
        for name, (calls, total, child) in snap["stats"].items():
            s = self.stats[name]
            s[0] += calls
            s[1] += total
            s[2] += child
        for key, count in snap["nested"].items():
            self.nested[key] += count

    def per_op_metrics(self, ops):
        """<span>.calls and <span>.self_s per op of the workload."""
        out = {}
        for name, (calls, total, child) in self.stats.items():
            base = metric_name(name)
            out[base + ".calls"] = (calls / ops, "count/op")
            out[base + ".self_s"] = ((total - child) / ops, "s/op")
        return out

    def nested_counts(self):
        """Solver and family evaluations per call of the outer span."""
        out = {}
        for key, (outer, _) in NESTED.items():
            calls = self.stats[outer][0]
            out[key] = (self.nested[key] / calls if calls else 0.0, "count")
        return out


_IMPORT_SNIPPET = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import cvmw.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t, sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def import_probe(env, samples):
    """Cold `import cvmw.cli` in fresh interpreters, plus `-X importtime`.

    Returns metrics: the median import wall time, the scipy module count,
    the median cumulative import time of each cvmw module and the summed
    self import time of all scipy and of all numpy modules.
    """
    def run(args):
        return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                              text=True, check=True)

    run(["-c", "import cvmw.cli"])  # discarded: compiles bytecode, warms the file cache
    walls, counts = [], set()
    for _ in range(samples):
        wall, count = run(["-c", _IMPORT_SNIPPET]).stdout.split()
        walls.append(float(wall))
        counts.add(int(count))
    if len(counts) != 1:
        raise RuntimeError("scipy module count differs between fresh imports")
    per_module = {}
    for _ in range(samples):
        # a fixed set of names, so the metrics stay the same when modules come and go
        cumulative = dict.fromkeys(["scipy", "numpy", "cvmw"]
                                   + ["cvmw." + m for m in MODULES], 0.0)
        for line in run(["-X", "importtime", "-c", "import cvmw.cli"]).stderr.splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            self_us, cum_us, name = int(parts[0].split()[-1]), int(parts[1]), parts[2]
            top = name.split(".")[0]
            if top in ("scipy", "numpy"):
                cumulative[top] += self_us / 1e6
            elif name in cumulative:
                cumulative[name] = cum_us / 1e6
        for name, value in cumulative.items():
            per_module.setdefault(name, []).append(value)
    out = {"import.cvmw_cli_s": (statistics.median(walls), "s"),
           "import.scipy_modules": (float(counts.pop()), "count")}
    for name, values in sorted(per_module.items()):
        kind = "cumulative_s" if name.startswith("cvmw") else "self_s"
        out["import.%s.%s" % (name, kind)] = (statistics.median(values), "s")
    return out


TRACE_MARK = "#cvmw-bench-trace "


def trace_cli_main(argv):
    """Run cvmw.cli.main under the tracer and report the spans on stderr."""
    tracer = Tracer().install()
    cli = importlib.import_module("cvmw.cli")
    code = cli.main(argv)
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    # `python bench/tracing.py ARGS` runs `cvmw.cli ARGS` under the tracer;
    # the cli-cold workload's traced run uses it for each CLI process
    sys.exit(trace_cli_main(sys.argv[1:]))
