"""Import footprint: what ``import pwcalc``, the first public name and one
CLI call load, each measured in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, GOLDEN_CASES, with_package_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# modules a CLI handler imports on demand -> the subcommands that need it
ON_DEMAND = {
    "pwcalc.lebesgue": {"lebesgue", "psum", "psum-limit", "singular", "abscont"},
    "pwcalc.means": {"trace", "tensor-check"},
    "pwcalc.radon_nikodym": {"rn", "kubo", "form-p"},
}

LOADED = ("print(json.dumps(sorted(m for m in sys.modules"
          " if m == 'numpy' or m.startswith('pwcalc'))))")


def _fresh(code, cwd=FIXTURES):
    """Run ``code`` in a new interpreter and return what it printed last,
    parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PWCALC_TOL_ZERO"}
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}"],
                          capture_output=True, cwd=cwd, text=True,
                          env=with_package_path(env))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh(f"import pwcalc\n{LOADED}") == ["pwcalc"]


def test_first_public_name_loads_every_traced_module():
    # the benchmark's tracer looks its targets up in sys.modules; with the
    # command line imported as the benchmark imports it, it must install
    loaded = _fresh(f"""
import pwcalc
pwcalc.build_rep
first = sorted(m for m in sys.modules if m.startswith('pwcalc'))
import types
public = sorted(name for name, value in vars(pwcalc).items()
                if not name.startswith('_')
                and not isinstance(value, types.ModuleType))
assert public == sorted(pwcalc.__all__), set(public) ^ set(pwcalc.__all__)
import pwcalc.cli
sys.path.insert(0, {str(PERFBENCH)!r})
import tracer
with tracer.Tracer():
    pass
modules = {{mod for mod, *_ in (*tracer.FUNCTIONS, *tracer.METHODS)}}
print(json.dumps([first, sorted(modules | set(tracer.WHOLE_MODULES))]))
""")
    first, traced = loaded
    # only the command line's own modules wait for ``import pwcalc.cli``
    assert sorted(set(traced) - set(first)) == ["pwcalc.cli", "pwcalc.fileio"]


def test_unknown_name_raises_attribute_error():
    assert _fresh("""
import pwcalc
try:
    pwcalc.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""") == "module 'pwcalc' has no attribute 'no_such_name'"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_call_loads_only_its_handlers_modules(name):
    argv = GOLDEN_CASES[name]
    loaded = _fresh(f"""
import contextlib, io
from pwcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({argv!r})
{LOADED}""")
    assert {m for m in ON_DEMAND if m in loaded} == {
        m for m, commands in ON_DEMAND.items() if argv[0] in commands}
