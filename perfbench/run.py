"""pwcalc benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload lib-medium --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root; pwcalc is imported from ``src`` (it need not
be installed). The workload runs in one fresh worker process with BLAS
pinned to one thread, as a closed loop with one client. Every output is
checked against numpy.linalg oracles outside the timed interval, and a
seeded sample is rerun and must come out byte-identical.

``--trace 0`` prints the end-to-end metrics (``setup_s`` is the median of
several fresh ``import pwcalc`` interpreters). Their times are scaled to a
reference host by fixed work measured next to them (``calibrate.py``), so
that the host's drifting speed cancels out. ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans under
``.perfbench_work/``. A summary goes to stdout first and reasons for any
failed operation to stderr; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import calibrate
import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("cli-small", "lib-small", "lib-medium", "rep-sweep")
SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_workload(workload, seed, seconds, trace):
    env = procs.child_env(SRC)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        problem = procs.smoke_cli(env, work)
        if problem:
            raise BenchError(problem)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--src", SRC, "--work", work]
        if trace:
            cmd += ["--spans", os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")]
        try:
            proc = subprocess.run(cmd, env=env, cwd=work, stdout=subprocess.PIPE,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not trace:
            setup = calibrate.scaled_spawn_seconds("import pwcalc", env, work,
                                                   SETUP_SPAWNS)
            result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, result, trace):
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {workload}: {attempted} operations attempted, {failed} failed, "
          f"{result['samples']} timed samples")
    host = result["host"]
    print(f"# host speed {host['speed']:.3f} of the reference host by the "
          f"{host['reference']} reference; unscaled latency p50 "
          f"{host['unscaled_p50_ms']:.4g} ms")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print(f"{'ops_failed_frac':44s} {failed / attempted:>16.6g} frac")
    for line in result["failures"]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    return {"correct": failed == 0 and not result["failures"],
            "attempted": attempted, "failed": failed, "metrics": result["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "pwcalc")):
        print(f"perfbench: no pwcalc sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            lines.append(report(name, result, args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
