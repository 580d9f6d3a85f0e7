"""Compare the golden CLI reports with those at a git revision.

Usage::

    python tests/golden_diff.py REV

Checks every ``tests/golden/*.json`` of the working tree against the file
of the same name at revision ``REV`` and prints each float that moved.
A regeneration passes when:

- both sides hold the same golden files, and every report the same keys
  in the same order;
- every non-float field is unchanged: strings (the ``status`` that sets
  the exit code, warnings, errors, hashes), booleans, nulls and integers;
- every changed float stays within ``1e-13`` relative of the old value,
  except the rounding-level residuals (``residual``, ``residual_sum``,
  ``identity_residual``), which need ``0 <= new <= sqrt(n) * max(old,
  n * eps)``, with ``n`` the largest matrix dimension in the report.

Exit status 0 on pass, 1 on a violation, 2 on a usage error. Not a test
module: pytest does not collect it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_BOUND = 1e-13
RESIDUALS = ("residual", "residual_sum", "identity_residual")
EPS = sys.float_info.epsilon


def _pairs(old, new, path):
    """Yield ``(path, old, new)`` leaves; raise ``ValueError`` on a
    structural difference."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            raise ValueError(f"{path}: keys {list(old)} -> {list(new)}")
        for key in old:
            yield from _pairs(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise ValueError(f"{path}: length {len(old)} -> {len(new)}")
        for i, (u, v) in enumerate(zip(old, new)):
            yield from _pairs(u, v, f"{path}[{i}]")
    else:
        yield path, old, new


def _is_number(v) -> bool:
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool))


def _dimension(report) -> int:
    dims = [1]

    def walk(node):
        if isinstance(node, dict):
            if isinstance(node.get("n"), int) and "re" in node:
                dims.append(node["n"])
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)
    return max(dims)


def compare(name: str, old: dict, new: dict) -> tuple[list[str], list[str], float]:
    """``(moved, violations, largest relative change of a non-residual)``."""
    moved, bad, worst = [], [], 0.0
    n = _dimension(new)
    try:
        leaves = list(_pairs(old, new, name))
    except ValueError as exc:
        return moved, [str(exc)], worst
    for path, u, v in leaves:
        # 0 and 0.0 are the same value; True and 1 are not
        if u == v and isinstance(u, bool) == isinstance(v, bool):
            continue
        if not (_is_number(u) and _is_number(v)) or (
                isinstance(u, int) and isinstance(v, int)):
            bad.append(f"{path}: non-float field {u!r} -> {v!r}")
            continue
        key = path.rsplit(".", 1)[-1]
        if key in RESIDUALS:
            limit = math.sqrt(n) * max(u, n * EPS)
            line = f"{path}: {u!r} -> {v!r} (residual, bound {limit:.3e})"
            if not 0.0 <= v <= limit:
                bad.append(line)
        else:
            rel = abs(v - u) / abs(u) if u else math.inf
            worst = max(worst, rel)
            line = f"{path}: {u!r} -> {v!r} (relative {rel:.2e})"
            if not rel <= REL_BOUND:
                bad.append(line)
        moved.append(line)
    return moved, bad, worst


def _at_revision(rev: str) -> dict[str, dict]:
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=GOLDEN,
                          capture_output=True, text=True, check=True).stdout.strip()
    rel = GOLDEN.relative_to(root).as_posix()
    names = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{rel}"],
                           cwd=root, capture_output=True, text=True,
                           check=True).stdout.split()
    return {name: json.loads(subprocess.run(
        ["git", "show", f"{rev}:{rel}/{name}"], cwd=root, capture_output=True,
        text=True, check=True).stdout)
        for name in names if name.endswith(".json")}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        old = _at_revision(argv[0])
    except subprocess.CalledProcessError as exc:
        print(f"cannot read the goldens at {argv[0]!r}: {exc.stderr.strip()}",
              file=sys.stderr)
        return 2
    new = {p.name: json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))}
    violations = []
    if sorted(old) != sorted(new):
        violations.append(f"golden files differ: {sorted(old)} -> {sorted(new)}")
    moved_total, worst = 0, 0.0
    for name in sorted(set(old) & set(new)):
        moved, bad, rel = compare(name[:-5], old[name], new[name])
        for line in moved:
            print(line)
        violations += bad
        moved_total += len(moved)
        worst = max(worst, rel)
    print(f"{moved_total} field(s) moved in {len(new)} golden file(s); "
          f"largest relative change {worst:.2e} (bound {REL_BOUND:g})")
    for line in violations:
        print(f"VIOLATION {line}")
    print("FAIL" if violations else "PASS")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
