"""Time the queries of a reused representative, per pair kind.

Usage::

    python tests/query_cost.py [--rounds N]

Builds one seeded complex n=24 pair of each kind of the benchmark's
reused-rep workload (``full``, ``a_def``, ``b_def``, ``singular`` and
``a_zero``, drawn at joint scale 1 by ``kernel_rounds.pair``), its
``build_rep``, a state and a dominated matrix. Then, for ``N`` rounds
(default 7), it times every query on every kind once per round, the
cells interleaved so that a drift of the host's speed spreads over all of
them, and prints the best round of each cell in microseconds per call:

- ``eval`` of one profile of each family the workload sweeps
  (``geom:0.3``, ``parallel*2``, ``parallel``, ``abs``, ``arith``,
  ``left``, ``right`` and ``rncut:4``);
- ``pairing`` of ``parallel`` against the state;
- ``eval_sequence`` of the workload's eight profiles ``parallel*2**k``
  against the state;
- ``to_support`` of the dominated matrix.

BLAS runs on one thread. The times are wall times, so compare them only
within one run. It imports ``pwcalc`` from the ``src`` directory next to
this one. Not a test module: pytest does not collect it; a test runs it
for one round.
"""

import argparse
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kernel_rounds import REP_KINDS, SEED, dominated, pair, state  # noqa: E402

import pwcalc as pw  # noqa: E402

N = 24
EVAL_FNS = [pw.geometric(0.3), pw.scaled_parallel(2.0), pw.parallel(), pw.abs_part(),
            pw.arithmetic(), pw.left(), pw.right(), pw.rn_cutoff(4.0)]
SEQUENCE = [pw.scaled_parallel(2.0 ** k) for k in range(8)]
# calls per timed cell: an eval is tens of microseconds, a query that
# validates a state or matrix a few milliseconds
EVAL_CALLS = 200
SOLVE_CALLS = 5


def queries(rep, rho, c):
    """``(row name, calls per cell, query)`` for one rep."""
    rows = [(f"eval {fn.name}", EVAL_CALLS, lambda fn=fn: rep.eval(fn)) for fn in EVAL_FNS]
    return rows + [
        ("pairing parallel", SOLVE_CALLS, lambda: rep.pairing(pw.parallel(), rho)),
        ("eval_sequence", SOLVE_CALLS, lambda: rep.eval_sequence(SEQUENCE, rho)),
        ("to_support", SOLVE_CALLS, lambda: rep.to_support(c)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    cells = {}
    for i, kind in enumerate(REP_KINDS):
        rng = np.random.default_rng([SEED, N, i])
        a, b = pair(rng, kind, N, real=False)
        rep = pw.build_rep(a, b)
        for name, calls, query in queries(rep, state(rng, N, False),
                                          dominated(rng, a + b, False)):
            cells[name, kind] = (calls, query, [])
    for _ in range(args.rounds):
        for calls, query, best in cells.values():
            start = time.perf_counter()
            for _ in range(calls):
                query()
            best.append((time.perf_counter() - start) / calls)
    print(f"# python {sys.version.split()[0]}, n = {N} complex, one BLAS thread, "
          f"{args.rounds} round(s); best us per call")
    print(f"{'query':18}" + "".join(f"{kind:>10}" for kind in REP_KINDS))
    for name in dict.fromkeys(name for name, _ in cells):
        print(f"{name:18}" + "".join(f"{1e6 * min(cells[name, kind][2]):10.1f}"
                                     for kind in REP_KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
