"""Time the cold start of one ``pwcalc`` call, step by step.

Usage::

    python tests/cold_start.py [--rounds N]

Spawns four kinds of fresh interpreter, one of each per round, in an order
that rotates from round to round, for ``N`` rounds (default 25):

- ``python -c pass``;
- ``import numpy``;
- ``import pwcalc.cli``;
- a full ``python -m pwcalc rep`` call on the golden fixture
  (``fixtures/a3.json`` and ``b3.json``), run as ``-m`` runs it, through
  ``pwcalc.__main__.run``; its report must equal ``golden/rep.json``.

The first three run their statement wrapped as ``run`` wraps its import:
collector off, the statement, ``gc.freeze()``, collector back on, standard
output flushed, ``os._exit(0)``. Every child gets the environment of the
benchmark's CLI calls: the ``src`` directory next to this one first on
``PYTHONPATH``, ``PWCALC_TOL_ZERO`` removed and BLAS pinned to one thread.

Each child writes a ``time.monotonic()`` stamp to standard error as it
calls ``os._exit``. The probe stamps the clock before it starts a child and
once the child is reaped, and prints for each kind the median and quartiles
of the whole spawn, the step (its median less the previous kind's) and the
exit: from the child's stamp to its reaping. All times are wall times in
milliseconds, so compare them only within one run. Not a test module:
pytest does not collect it; a test runs it for one round.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FIXTURES = TESTS / "fixtures"
REP_ARGV = ["rep", "--a", "a3.json", "--b", "b3.json"]

# every child ends through this os._exit, which stamps the clock first
STAMP = """import os, sys, time
def _stamped(code, _exit=os._exit):
    os.write(2, f"{time.monotonic()!r}\\n".encode())
    _exit(code)
os._exit = _stamped
"""
WRAPPED = STAMP + """import gc
gc.disable()
try:
    STATEMENT
    gc.freeze()
finally:
    gc.enable()
sys.stdout.flush()
os._exit(0)
"""
KINDS = {
    "python -c pass": WRAPPED.replace("STATEMENT", "pass"),
    "import numpy": WRAPPED.replace("STATEMENT", "import numpy"),
    "import pwcalc.cli": WRAPPED.replace("STATEMENT", "import pwcalc.cli"),
    "python -m pwcalc rep": STAMP + f"""sys.argv[1:] = {REP_ARGV!r}
import runpy
runpy.run_module("pwcalc", run_name="__main__", alter_sys=True)
""",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PWCALC_TOL_ZERO"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(code: str, env: dict) -> tuple[float, float, bytes]:
    """Run ``python -c code`` in the fixtures directory; return its wall
    and exit seconds and what it printed."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=FIXTURES, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    end = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{err.decode(errors='replace').strip()[-500:]}")
    return end - start, end - float(err.splitlines()[-1]), out


def spread(seconds: list[float]) -> str:
    """Median and quartiles in milliseconds."""
    ms = sorted(1e3 * s for s in seconds)
    q1, q3 = (statistics.quantiles(ms, n=4, method="inclusive")[::2]
              if len(ms) > 1 else (ms[0], ms[0]))
    return f"{statistics.median(ms):7.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    golden = (TESTS / "golden" / "rep.json").read_bytes()
    env = child_env()
    names = list(KINDS)
    wall = {name: [] for name in names}
    exits = {name: [] for name in names}
    for r in range(args.rounds):
        for name in names[r % len(names):] + names[:r % len(names)]:
            seconds, exit_seconds, out = spawn(KINDS[name], env)
            if name == "python -m pwcalc rep" and out != golden:
                raise RuntimeError("the rep call's report is not golden/rep.json")
            wall[name].append(seconds)
            exits[name].append(exit_seconds)
    print(f"# python {sys.version.split()[0]}, {args.rounds} round(s); "
          "ms, median [quartiles]")
    print(f"{'kind':22} {'spawn':24} {'step':>7}  exit")
    previous = 0.0
    for name in names:
        median = 1e3 * statistics.median(wall[name])
        print(f"{name:22} {spread(wall[name]):24} {median - previous:7.1f}  "
              f"{spread(exits[name])}")
        previous = median
    return 0


if __name__ == "__main__":
    sys.exit(main())
