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


def test_script_runs_the_process_entry():
    import tomllib
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"pwcalc": "pwcalc.__main__:run"}


def test_entry_module_loads_no_numpy_and_no_submodule():
    # the script imports the entry module before it calls ``run``; numpy
    # loaded then would be imported with the collector still on
    assert _fresh(f"import pwcalc.__main__\n{LOADED}") == [
        "pwcalc", "pwcalc.__main__"]


# ``run`` with the golden ``rep`` argv; a profile hook records the collector
# state when ``cli.main`` starts, and whether the module dicts of numpy and
# the command line are left out of the collector's tracked objects
ENTRY_STATE = f"""
import gc
sys.argv = ["pwcalc", *{GOLDEN_CASES["rep"]!r}]
seen = []

def probe(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "main"
            and frame.f_code.co_filename.endswith("cli.py") and not seen):
        tracked = {{id(obj) for obj in gc.get_objects()}}
        seen.append([gc.isenabled(), gc.get_freeze_count() > 0,
                     [id(vars(sys.modules[name])) in tracked
                      for name in ("numpy", "pwcalc.cli")]])

import contextlib, io
from pwcalc.__main__ import run
sys.setprofile(probe)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        run()
except SystemExit as exc:
    code = exc.code
sys.setprofile(None)
print(json.dumps([code, *seen]))
"""


def test_entry_freezes_the_imports_and_runs_main_collecting():
    code, (enabled, frozen, tracked) = _fresh(ENTRY_STATE)
    assert code == 0
    assert enabled and frozen
    assert tracked == [False, False]


def test_in_process_main_leaves_the_collector_alone():
    assert _fresh(f"""
import contextlib, gc, io
from pwcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({GOLDEN_CASES["rep"]!r})
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
""") == [0, True, 0]
