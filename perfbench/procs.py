"""Child processes: environment, CLI smoke call and spawn timing."""

import json
import os
import statistics
import subprocess
import sys
import threading
import time

SPAWN_TIMEOUT_S = 60


def child_env(src):
    """Environment for every child: the absolute ``src`` first on
    PYTHONPATH (pwcalc need not be installed) and one BLAS thread, so a run
    stays on one core."""
    env = {k: v for k, v in os.environ.items() if k != "PWCALC_TOL_ZERO"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, cwd):
    """Run a child to completion; return (exit code, stdout, stderr, seconds).

    Waits without polling: ``subprocess.run(timeout=...)`` polls with sleeps
    of up to 50 ms, which would quantize the timings. A watchdog kills a
    child that runs past ``SPAWN_TIMEOUT_S``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err, time.perf_counter() - t0


def smoke_cli(env, work):
    """Run one ``python -m pwcalc rep`` call; return None or what went wrong."""
    path = os.path.join(work, "smoke.json")
    with open(path, "w") as fh:
        json.dump({"n": 2, "re": [[2.0, 1.0], [1.0, 2.0]]}, fh)
    code, out, err, _ = run_child(
        [sys.executable, "-m", "pwcalc", "rep", "--a", path, "--b", path], env, work)
    if code != 0:
        return f"smoke call exited {code}: {err.decode(errors='replace').strip()[-500:]}"
    try:
        json.loads(out)
    except ValueError:
        return "smoke call printed no JSON report"
    return None


def spawn_seconds(code, env, cwd):
    """Wall time of one fresh interpreter running ``python -c code``."""
    status, _, err, seconds = run_child([sys.executable, "-c", code], env, cwd)
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}: "
                           f"{err.decode(errors='replace').strip()[-500:]}")
    return seconds


def median_spawn_seconds(code, env, cwd, times):
    return statistics.median(spawn_seconds(code, env, cwd) for _ in range(times))


def spawn_cli(env, cwd):
    """Operation runner for cli-small: one ``python -m pwcalc`` per call."""
    def call(argv):
        code, out, _, _ = run_child([sys.executable, "-m", "pwcalc", *argv], env, cwd)
        return code, out
    return call
