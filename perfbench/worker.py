"""Runs one workload in this (fresh) process and prints its result as JSON.

Started by ``run.py`` with pwcalc's ``src`` on PYTHONPATH and BLAS pinned
to one thread. With ``--trace 0`` it makes one untraced pass of
``--seconds``; with ``--trace 1`` it makes an untraced and a traced pass of
half as long each (their ratio is the tracing overhead), then the fixed
probes: the solve table (twice, which must agree), the kernel size sweep,
and interpreter and import spawns. Every pass interleaves a host speed
reference (``calibrate.py``), and the end-to-end times are scaled by it.
"""

import argparse
import collections
import json
import math
import pickle
import resource
import statistics
import sys
import time

import numpy as np

try:
    import pwcalc  # noqa: F401
except ImportError as exc:
    sys.exit(f"cannot import pwcalc: {exc}")

import probes
import procs
import workloads as W
from calibrate import Reference, scaled
from inputs import Gen
from tracer import Tracer

SPAWNS = 5


class Pass:
    def __init__(self):
        self.latencies = []
        self.templates = []      # position of each operation in its batch
        self.busy = 0.0          # sum of the latencies
        self.marks = []          # (operation index, reference seconds)
        self.attempted = 0
        self.failed = 0
        self.reasons = collections.Counter()


def fingerprint(result):
    if isinstance(result, BaseException):
        return type(result).__name__, str(result)
    return pickle.dumps(result, protocol=4)


def run_pass(workload, seed, ctx, ref, seconds=None, ops=None, tracer=None):
    """Closed loop, one client: time each operation, then check the batch.

    Measures the host speed reference ``ref`` before the first operation
    and again whenever ``ref.every_s`` of operation time has passed since.
    Stops after ``seconds`` of operation time, or after ``ops`` operations;
    the same seed always gives the same sequence of operations."""
    done = Pass()
    batches = W.WORKLOADS[workload](Gen(np.random.default_rng(seed)), ctx)
    rerun = np.random.default_rng([seed, 1])
    share = W.RERUN_SHARE[workload]

    def finished():
        if ops is not None:
            return len(done.latencies) >= ops
        return done.busy >= seconds

    since_mark = math.inf
    while not finished():
        batch = next(batches)
        results = []
        for pos, op in enumerate(batch):
            if since_mark >= ref.every_s:
                done.marks.append((len(done.latencies), ref.measure()))
                since_mark = 0.0
            if tracer:
                tracer.op = len(done.latencies)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation, checked below
                result = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.active = False
            done.latencies.append(t1 - t0)
            done.templates.append(pos)
            done.busy += t1 - t0
            since_mark += t1 - t0
            results.append(result)
            if finished():
                break
        for op, result in zip(batch, results):
            done.attempted += 1
            again = rerun.random() < share
            try:
                why = op.check(result)
                if why is None and again:
                    try:
                        second = op.run()
                    except Exception as exc:
                        second = exc
                    if fingerprint(second) != fingerprint(result):
                        why = "rerun not byte-identical"
            except Exception as exc:  # the check itself could not read the output
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                done.failed += 1
                done.reasons[f"{op.name}: {why}"] += 1
    return done


def percentile_ms(latencies, q):
    return float(np.percentile(latencies, q)) * 1e3


def typical_busy(done, lat):
    """Busy time with each operation's time replaced by the median time of
    its template over the run, so that a few operations slowed by an
    interrupt do not move the total."""
    by_template = collections.defaultdict(list)
    for pos, seconds in zip(done.templates, lat):
        by_template[pos].append(seconds)
    return sum(len(v) * statistics.median(v) for v in by_template.values())


def host_speed(done, ref):
    """The host's median speed over a pass, relative to the reference host."""
    return ref.ref_s / statistics.median(r for _, r in done.marks)


def end_to_end(workload, done, ref):
    lat = scaled(done.latencies, done.marks, ref.ref_s)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-small" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (len(lat) / typical_busy(done, lat), "1/s"),
        "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        "latency_tail_ms": (percentile_ms(lat, W.TAIL_PERCENTILE[workload]), "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": (1.0 - done.failed / done.attempted, "frac"),
    }


def per_layer(workload, plain, traced, tracer, ctx, ref):
    ops = len(traced.latencies)
    totals = tracer.layer_totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0] / ops

    def self_ms(*layers):
        return sum(totals.get(x, (0, 0.0, 0.0))[1] for x in layers) * 1e3 / ops

    order = np.argsort(traced.latencies, kind="stable")

    def solves_at(q):
        op = int(order[int(round(q / 100.0 * (ops - 1)))])
        return tracer.op_solves.get(op, 0)

    main_calls, _, main_total = totals.get("cli.main", (0, 0.0, 0.0))
    m = {
        "linalg.solves_per_op": (tracer.solves / ops, "count"),
        "linalg.solve_n3_per_op": (tracer.solve_n3 / ops, "count"),
        "linalg.eig.self_ms_per_op": (self_ms("linalg.eig"), "ms"),
        "linalg.eig.share": (self_ms("linalg.eig") * ops / 1e3 / traced.busy, "frac"),
        "linalg.eig.repeat_frac": (tracer.repeats / max(tracer.solves, 1), "frac"),
        "linalg.solves_at_p50_op": (solves_at(50), "count"),
        "linalg.solves_at_tail_op": (solves_at(W.TAIL_PERCENTILE[workload]), "count"),
        "linalg.validate_psd.calls_per_op": (calls("linalg.validate_psd"), "count"),
        "linalg.validate_psd.self_ms_per_op": (self_ms("linalg.validate_psd"), "ms"),
        "linalg.psd_sqrt.calls_per_op": (calls("linalg.psd_sqrt"), "count"),
        "linalg.polar_isometry.calls_per_op": (calls("linalg.polar_isometry"), "count"),
        "linalg.hermitian_norm.calls_per_op": (calls("linalg.hermitian_norm"), "count"),
        "calculus.build_rep.calls_per_op": (calls("calculus.build_rep"), "count"),
        "calculus.build_rep.self_ms_per_op": (self_ms("calculus.build_rep"), "ms"),
        "calculus.query.self_ms_per_op": (self_ms("calculus.query"), "ms"),
        "functions.values.calls_per_op": (calls("functions.values"), "count"),
        "functions.values.self_ms_per_op": (self_ms("functions.values"), "ms"),
        "lebesgue.self_ms_per_op": (self_ms("lebesgue"), "ms"),
        "means.self_ms_per_op": (self_ms("means"), "ms"),
        "radon_nikodym.self_ms_per_op": (self_ms("radon_nikodym"), "ms"),
        "fileio.load.self_ms_per_op": (self_ms("fileio.load"), "ms"),
        "fileio.dumps_report.self_ms_per_op": (self_ms("fileio.dumps_report"), "ms"),
        "fileio.report_bytes_per_op": (tracer.report_bytes / ops, "B"),
        "cli.main_ms": (main_total * 1e3 / main_calls if main_calls else 0.0, "ms"),
        "trace.overhead_frac": (sum(scaled(traced.latencies, traced.marks, ref.ref_s))
                                / sum(scaled(plain.latencies, plain.marks, ref.ref_s))
                                - 1.0, "frac"),
    }
    interp = procs.median_spawn_seconds("pass", ctx["env"], ctx["work"], SPAWNS)
    imported = procs.median_spawn_seconds("import pwcalc", ctx["env"], ctx["work"],
                                          SPAWNS)
    m["cli.interp_ms"] = (interp * 1e3, "ms")
    m["cli.import_ms"] = ((imported - interp) * 1e3, "ms")

    failures = []
    table, bad = probes.solve_table()
    failures += bad
    again, _ = probes.solve_table()
    if again != table:
        failures.append("solve table counts differ between two runs")
    for op, (solves, repeats) in table.items():
        m[f"linalg.solves.{op}"] = (solves, "count")
        m[f"linalg.repeats.{op}"] = (repeats, "count")
    sweep, bad = probes.kernel_sweep()
    failures += bad
    for n, ms in sweep.items():
        m[f"linalg.eig.ms_n{n}"] = (ms, "ms")
        m[f"linalg.eig.n3_n{n}"] = (n ** 3, "count")
    return m, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args()

    env = procs.child_env(args.src)
    ctx = {"work": args.work, "env": env}
    spawned = args.workload == "cli-small" and not args.trace
    if args.workload == "cli-small":
        # untraced runs spawn the CLI; traced runs call cli.main in-process
        ctx["call"] = procs.spawn_cli(env, args.work) if spawned else W.inprocess_cli
    ref = (Reference("spawn", env, args.work) if spawned else Reference("loop"))

    failures = []
    if args.trace:
        # the traced pass replays the untraced pass's operations, so the
        # ratio of their busy times is the tracing overhead
        plain = run_pass(args.workload, args.seed, ctx, ref,
                         seconds=args.seconds / 2)
        with Tracer() as tracer:
            traced = run_pass(args.workload, args.seed, ctx, ref,
                              ops=len(plain.latencies), tracer=tracer)
        passes = [plain, traced]
        metrics, failures = per_layer(args.workload, plain, traced, tracer, ctx,
                                      ref)
        if args.spans:
            tracer.write(args.spans)
    else:
        done = run_pass(args.workload, args.seed, ctx, ref, seconds=args.seconds)
        passes = [done]
        metrics = end_to_end(args.workload, done, ref)

    reasons = collections.Counter()
    for p in passes:
        reasons.update(p.reasons)
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "samples": len(passes[-1].latencies),
        "host": {"reference": ref.kind,
                 "speed": host_speed(passes[-1], ref),
                 "unscaled_p50_ms": percentile_ms(passes[-1].latencies, 50)},
        "failures": failures + [f"{n} x {r}" for r, n in reasons.most_common(20)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
