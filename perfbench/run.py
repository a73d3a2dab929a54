#!/usr/bin/env python3
"""Closed-loop benchmark of the dpchroma package, standard library only.

Run from the repository root:

    python3 perfbench/run.py --workload hub-planar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each
    python3 perfbench/run.py --record-digests     # rewrite perfbench/digests.json

One process runs one workload, one operation at a time, in passes over
the workload's operations until the next pass would end after
--seconds.  The inputs are fixed; --seed sets the order of the
operations in each pass.  Operations shorter than REP_TARGET_S are
repeated within a pass.  Every output is checked; a check that fails,
or an exception, counts the operation as failed.

Times are scaled by the speed meter (meter.py) to a machine of fixed
speed, so that the phases in which a shared machine runs slower move
them as little as possible.  Every timing reported is a median of
scaled samples over the run.

With --trace 0 each pass is preceded by a fresh set-up (package import
plus inputs), and the run reports the end-to-end metrics.  With
--trace 1 the run sets up once under the span recorder, alternates
untraced passes with traced ones for half of --seconds, then runs the
workload's long operations once, traced; it reports the per-layer
metrics.
Human-readable lines come first; the last line of standard output is
one JSON object.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("hub-planar", "drum-march", "oracle-sweep", "counterexample-check")

REP_TARGET_S = 0.02
MAX_REPS = 15

END_TO_END = ("setup_s", "pass_s", "large_s", "small_s")


class Outcomes:
    """Counts operations attempted and failed; keeps what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.problems = []

    def fail(self, key, error, detail):
        self.failed += 1
        self.errors[error] = self.errors.get(error, 0) + 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s: %s" % (key, error, detail))

    def call(self, op, run):
        """Guarded call: (output, seconds), or (None, None) on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # one failing operation must not end the run
            self.fail(op.key, type(exc).__name__, str(exc)[:200])
            return None, None
        dt = time.perf_counter() - t0
        problems = op.check(out)
        if problems:
            self.fail(op.key, "WrongOutput", "; ".join(problems))
            return None, None
        return out, dt


class Run:
    """Per-operation timings, tallies and outcomes of one workload run.

    Operations are keyed by Op.key, so the fresh inputs of every set-up
    add to the same samples.  Samples are (start, end, seconds) and are
    scaled by close() once the run has measured.
    """

    def __init__(self):
        self.ops = {}
        self.samples = {}
        self.medians = {}
        self.tallies = {}
        self.reps = {}
        self.setups = []          # one sample per set-up
        self.traced = []          # (samples, operation ids) per traced pass
        self.span_ops = {}        # operation id -> Op, for traced calls
        self.outcomes = Outcomes()

    def _seen(self, op):
        if op.key not in self.ops:
            self.ops[op.key] = op
            self.samples[op.key] = []

    def _keep(self, op, out, sample):
        self.samples[op.key].append(sample)
        if op.key not in self.tallies and op.tally is not None:
            self.tallies[op.key] = op.tally(out)

    def untraced_pass(self, ops):
        for op in ops:
            self._seen(op)
            first, times = None, []
            start = time.perf_counter()
            for _ in range(self.reps.get(op.key, 1)):
                out, dt = self.outcomes.call(op, op.call)
                if dt is None:
                    break
                first = out if first is None else first
                times.append(dt)
            end = time.perf_counter()
            for dt in times:
                self._keep(op, first, (start, end, dt))
            if op.key not in self.reps and times:
                self.reps[op.key] = max(1, min(MAX_REPS, int(REP_TARGET_S / max(times[0], 1e-6))))

    def traced_pass(self, ops, rec, targets, keep_samples=False):
        """One traced call of each op; returns (samples, operation ids)."""
        ids = []
        samples = []
        rec.install(targets)
        try:
            for op in ops:
                self._seen(op)
                op_id = len(self.span_ops) + 1
                self.span_ops[op_id] = op
                ids.append(op_id)
                start = time.perf_counter()
                out, dt = self.outcomes.call(
                    op, lambda: rec.run_op(op_id, "op:" + op.kind, op.call))
                if dt is not None:
                    samples.append((start, time.perf_counter(), dt))
                    if keep_samples:
                        self._keep(op, out, samples[-1])
        finally:
            rec.uninstall()
        return samples, ids

    def close(self, meter):
        """Scale every sample; keep each operation's median."""
        self.medians = {k: statistics.median(meter.seconds(s) for s in v)
                        for k, v in self.samples.items() if v}
        self.setups = [meter.seconds(s) for s in self.setups]
        self.traced = [(sum(meter.seconds(s) for s in samples), ids)
                       for samples, ids in self.traced]

    def op_sum(self, keep):
        """Sum over the matching operations of each one's median time."""
        return sum(m for k, m in self.medians.items() if keep(self.ops[k]))

    def op_max(self, keep):
        return max((m for k, m in self.medians.items() if keep(self.ops[k])), default=0.0)

    def figures(self, layers):
        """layers.op_figures over this run's medians."""
        return layers.op_figures(lambda kind, size: self.op_sum(
            lambda op: op.kind == kind and size in (None, op.size)))


def fresh_import():
    """Import the package from source, as a new process does.

    The package is imported again under fresh module objects, which are
    then dropped, so the objects the run already holds stay in use.
    """
    def ours(name):
        return name == "dpchroma" or name.startswith("dpchroma.")

    saved = {k: m for k, m in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    try:
        importlib.import_module("dpchroma.cli")
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def keep_going(start, t_pass, seconds):
    """Whether another pass as long as the last one still ends in time."""
    now = time.perf_counter()
    return now - start + (now - t_pass) <= seconds


def measure_untraced(workload, args, workdir, digests, run):
    """Set-up and pass, repeated; returns (problems, probes)."""
    problems = []
    order = random.Random(args.seed)
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        gc.collect()
        found = []
        t0 = time.perf_counter()
        fresh_import()
        inputs = workload(workdir, digests, found, long=False)
        t1 = time.perf_counter()
        run.setups.append((t0, t1, t1 - t0))
        problems += [p for p in found if p not in problems]
        gc.collect()
        ops = list(inputs.ops)
        order.shuffle(ops)
        run.untraced_pass(ops)
        if not keep_going(start, t_pass, args.seconds):
            return problems, inputs.probes


def measure_traced(workload, args, workdir, digests, run, rec, targets):
    """Traced set-up, alternating passes for half of --seconds, then the
    long operations once, traced.

    Returns (problems, probes, ids of the operations traced only once).
    """
    problems = []
    rec.install(targets)
    try:
        inputs = rec.run_op(0, "setup", lambda: workload(
            workdir, digests, problems, long=True))
    finally:
        rec.uninstall()
    order = random.Random(args.seed)
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        ops = list(inputs.ops)
        order.shuffle(ops)
        gc.collect()
        run.untraced_pass(ops)
        gc.collect()
        run.traced.append(run.traced_pass(ops, rec, targets))
        if not keep_going(start, t_pass, args.seconds / 2):
            break
    gc.collect()
    _, long_ids = run.traced_pass(inputs.long_ops, rec, targets, keep_samples=True)
    return problems, inputs.probes, [0] + long_ids


def run_probes(probes, outcomes):
    """Operations known to fail today, run once each outside the measured
    passes.  A failure is reported by exception name; a wrong answer makes
    the run incorrect.  Returns (key, sample, outcome) per probe."""
    out = []
    for op in probes:
        t0 = time.perf_counter()
        try:
            problems = op.check(op.call())
            outcome = "WrongOutput" if problems else "ok"
            outcomes.problems.extend(problems)
        except Exception as exc:  # a probe that fails is the finding
            outcome = type(exc).__name__
        t1 = time.perf_counter()
        out.append((op.key, (t0, t1, t1 - t0), outcome))
    return out


def end_to_end(run):
    return {"setup_s": statistics.median(run.setups),
            "pass_s": run.op_sum(lambda op: op.scale != "long"),
            "large_s": run.op_sum(lambda op: op.scale == "large"),
            "small_s": run.op_sum(lambda op: op.scale == "small")}


def per_layer(layers, rec, run, once_ids, probes, failed_ratio):
    metrics = dict.fromkeys(layers.per_layer_names(), 0.0)
    metrics.update(layers.span_metrics(rec, once_ids, [ids for _, ids in run.traced]))
    for tally in run.tallies.values():
        for key, value in tally.items():
            if key in metrics:
                metrics[key] += value
    metrics.update(run.figures(layers))
    for metric, kind in layers.OP_MAXES.items():
        metrics[metric] = run.op_max(lambda op: op.kind == kind)
    probe_s = {key: dt for key, dt, _ in probes}
    for metric, key in layers.PROBE_METRICS.items():
        metrics[metric] = probe_s.get(key, 0.0)
    pass_s = run.op_sum(lambda op: op.scale != "long")
    traced_s = statistics.median(seconds for seconds, _ in run.traced)
    metrics["trace.overhead_ratio"] = traced_s / pass_s if pass_s else 0.0
    roots = [i for i in rec.select([o for _, ids in run.traced for o in ids])
             if rec.parents[i] < 0]
    own = rec.self_times()
    dur = rec.durations()
    wall = sum(dur[i] for i in roots)
    metrics["trace.unattributed_share"] = sum(own[i] for i in roots) / wall if wall else 0.0
    metrics["process.peak_rss_mb"] = peak_rss_mb()
    metrics["process.ops_failed_ratio"] = failed_ratio
    return metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_breakdown(rec, run):
    """Per operation kind, where the traced time of its biggest
    operations went (long ones if any, else large ones, else all), as
    inclusive shares of their wall time."""
    roots = {rec.ops[i]: i for i, parent in enumerate(rec.parents)
             if parent < 0 and rec.names[i].startswith("op:")}
    by_kind = {}
    for op_id, op in run.span_ops.items():
        by_kind.setdefault(op.kind, []).append((op_id, op))
    for kind, pairs in sorted(by_kind.items()):
        scales = {op.scale for _, op in pairs}
        pick = "long" if "long" in scales else "large" if "large" in scales else None
        ids = [op_id for op_id, op in pairs if pick is None or op.scale == pick]
        wall = sum(rec.ends[roots[o]] - rec.starts[roots[o]] for o in ids if o in roots)
        if not wall:
            continue
        totals = rec.totals(rec.select(ids))
        print("trace %s%s: %.4f s traced, self times sum to %.4f s"
              % (kind, " (%s)" % pick if pick else "", wall,
                 sum(v[2] for v in totals.values())))
        rows = sorted(((v[0], n) for n, v in totals.items() if not n.startswith("op:")),
                      reverse=True)
        for incl, n in rows[:8]:
            print("  %6.1f%%  %.4f s  %s" % (100 * incl / wall, incl, n))


def run_workload(args):
    import layers
    import spans
    import workloads
    from meter import SpeedMeter

    with open(DIGESTS) as fh:
        digests = workloads.Digests(json.load(fh))
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run()
    meter = SpeedMeter()
    meter.start()
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            if args.trace:
                rec = spans.SpanRecorder()
                problems, probes, once_ids = measure_traced(
                    workload, args, workdir, digests, run, rec, layers.trace_targets())
            else:
                problems, probes = measure_untraced(workload, args, workdir, digests, run)
            probe_results = run_probes(probes, run.outcomes)
    finally:
        meter.stop()
    run.close(meter)
    probe_results = [(key, meter.seconds(sample), outcome)
                     for key, sample, outcome in probe_results]

    outcomes = run.outcomes
    failed_all = outcomes.failed + sum(1 for _, _, o in probe_results if o != "ok")
    failed_ratio = failed_all / (outcomes.attempted + len(probe_results))
    correct = outcomes.failed == 0 and not problems and not outcomes.problems

    print("workload %s seed %d trace %d: python %s, %d cpus, %d operations, %d failed"
          % (args.workload, args.seed, args.trace, sys.version.split()[0], os.cpu_count(),
             outcomes.attempted, outcomes.failed))
    for line in problems + outcomes.problems:
        print("problem %s" % line)
    for error, count in sorted(outcomes.errors.items()):
        print("failures %s %d" % (error, count))
    for key, dt, outcome in probe_results:
        print("probe %s %s after %.4f s" % (key, outcome, dt))
    print("metric ops_failed_ratio %.6f ratio (probes included)" % failed_ratio)
    print("metric peak_rss_mb %.1f MB" % peak_rss_mb())

    if args.trace:
        metrics = per_layer(layers, rec, run, once_ids, probe_results, failed_ratio)
        units = {n: u for n, u, _ in layers.per_layer_spec()}
        print_breakdown(rec, run)
        rec.write(os.path.join(OUT_DIR, "spans-%s-seed%d.json.gz" % (args.workload, args.seed)))
    else:
        metrics = end_to_end(run)
        units = dict.fromkeys(END_TO_END, "s")
        print("passes %d, each after a fresh set-up" % len(run.setups))
        for name, value in run.figures(layers).items():
            if value and not name.endswith(".growth"):
                print("figure %s %.6f s" % (name, value))
    for name, value in metrics.items():
        print("metric %s %.6f %s" % (name, value, units[name]))
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted,
                      "failed": outcomes.failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


def record_digests():
    """Run every operation once per recorded input and store its digests."""
    import workloads

    table = {}
    digests = workloads.Digests(table, record=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for name, workload in workloads.WORKLOADS.items():
            problems = []
            inputs = workload(workdir, digests, problems, long=True)
            for op in inputs.ops + inputs.long_ops:
                problems += op.check(op.call())
            if problems:
                raise SystemExit("while recording %s: %s" % (name, problems[0]))
            print("recorded %s" % name, flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpchroma", "__init__.py")):
        print("error: no package source under %s" % SRC, file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
