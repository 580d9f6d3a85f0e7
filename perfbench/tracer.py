"""Spans around pwcalc's layers, recorded from outside the package.

``Tracer`` installs wrappers at every binding a pwcalc module holds for a
traced function: ``pwcalc.calculus.eig_hermitian`` and
``pwcalc.lebesgue.hermitian_norm`` are wrapped as well as the definitions
in ``pwcalc.linalg``. It also wraps ``pwcalc.linalg._jacobi_eig``, the one
entry every eigensolve passes through, and the methods of ``PwRep`` and
``PwFunction``. Each span records its layer, start, end, parent span and
operation id; spans stay in memory until the run ends. A layer's self time
is its span minus its direct child spans.
"""

import hashlib
import inspect
import json
import sys
import time

import numpy as np

# (module, attribute) -> layer. Functions are wrapped at every binding that
# refers to them, methods on their class.
FUNCTIONS = {
    ("pwcalc.linalg", "_jacobi_eig"): "linalg.eig",
    ("pwcalc.linalg", "eig_hermitian"): "linalg.eig_hermitian",
    ("pwcalc.linalg", "validate_psd"): "linalg.validate_psd",
    ("pwcalc.linalg", "psd_sqrt"): "linalg.psd_sqrt",
    ("pwcalc.linalg", "polar_isometry"): "linalg.polar_isometry",
    ("pwcalc.linalg", "hermitian_norm"): "linalg.hermitian_norm",
    ("pwcalc.linalg", "support_projection"): "linalg.support_projection",
    ("pwcalc.calculus", "build_rep"): "calculus.build_rep",
    ("pwcalc.fileio", "load_matrix"): "fileio.load",
    ("pwcalc.fileio", "load_vector"): "fileio.load",
    ("pwcalc.fileio", "dumps_report"): "fileio.dumps_report",
    ("pwcalc.cli", "main"): "cli.main",
}
METHODS = {
    ("pwcalc.calculus", "PwRep", "eval"): "calculus.query",
    ("pwcalc.calculus", "PwRep", "pairing"): "calculus.query",
    ("pwcalc.calculus", "PwRep", "eval_sequence"): "calculus.query",
    ("pwcalc.calculus", "PwRep", "to_support"): "calculus.query",
    ("pwcalc.functions", "PwFunction", "values"): "functions.values",
}
# every public function defined in these modules is one layer
WHOLE_MODULES = ("pwcalc.lebesgue", "pwcalc.means", "pwcalc.radon_nikodym")

EIG = "linalg.eig"
DUMPS = "fileio.dumps_report"


class Tracer:
    """Records spans while ``active``; use as a context manager to install
    and remove the wrappers."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.active = False
        self.solves = 0
        self.solve_n3 = 0
        self.repeats = 0
        self.report_bytes = 0
        self.op_solves = {}      # op id -> solves
        self._seen = set()
        self._restore = []

    # -- installation -------------------------------------------------

    def __enter__(self):
        targets = {}
        for (mod, attr), layer in FUNCTIONS.items():
            fn = getattr(sys.modules[mod], attr)
            targets[id(fn)] = (fn, layer)
        for mod in WHOLE_MODULES:
            m = sys.modules[mod]
            for attr, fn in vars(m).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod):
                    targets[id(fn)] = (fn, mod.split(".", 1)[1])
        wrappers = {key: self._wrap(fn, layer)
                    for key, (fn, layer) in targets.items()}
        for name, m in list(sys.modules.items()):
            if name != "pwcalc" and not name.startswith("pwcalc."):
                continue
            for attr, value in list(vars(m).items()):
                w = wrappers.get(id(value))
                if w is not None and targets[id(value)][0] is value:
                    self._restore.append((m, attr, value))
                    setattr(m, attr, w)
        for (mod, cls, attr), layer in METHODS.items():
            owner = getattr(sys.modules[mod], cls)
            fn = owner.__dict__[attr]
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, fn, layer):
        tracer = self
        is_eig = layer == EIG
        is_dumps = layer == DUMPS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_eig:
                tracer._count_solve(args[0])
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if is_dumps:
                tracer.report_bytes += len(result.encode())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _count_solve(self, mat):
        m = np.asarray(mat)
        n = m.shape[0]
        digest = hashlib.blake2b(
            repr((m.shape, m.dtype.str)).encode() + np.ascontiguousarray(m).tobytes(),
            digest_size=16).digest()
        self.solves += 1
        self.solve_n3 += n ** 3
        self.op_solves[self.op] = self.op_solves.get(self.op, 0) + 1
        if digest in self._seen:
            self.repeats += 1
        else:
            self._seen.add(digest)

    # -- aggregation --------------------------------------------------

    def layer_totals(self):
        """Per layer: (calls, self seconds, total seconds)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            calls, self_s, total_s = totals.get(layer, (0, 0.0, 0.0))
            totals[layer] = (calls + 1, self_s + (end - start) - child[i],
                             total_s + (end - start))
        return totals

    def write(self, path):
        """Write every span as one JSON line, times in microseconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for layer, start, end, parent, op in self.spans:
                fh.write(json.dumps([layer, round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3), parent, op]))
                fh.write("\n")
