"""The process entry: ``python -m pwcalc`` and the ``pwcalc`` script both
call ``run``.

Importing numpy and the library leaves some 22,000 objects tracked by the
cyclic collector, which would scan them in the collections it makes during
the imports and again at interpreter exit. ``run`` imports the command line
with the collector off and freezes what the imports left, so no later
collection scans it; then it turns the collector back on and runs the call.

Once ``main`` has written its report, nothing the process holds is needed:
``main`` writes and closes ``--out`` itself and flushes the report to
standard output (a failure there is its one line on standard error and
exit 1), and pwcalc registers no ``atexit`` handler. So ``run`` flushes
both standard streams and ends the process with ``os._exit``, skipping
module teardown and the final collections. ``atexit`` handlers do not run.
A usage error or ``--help`` leaves through argparse's ``SystemExit`` and
the interpreter's normal exit.

``cli.main`` itself touches no collector state and never ends the process,
so library users and in-process calls are unaffected. This module imports
nothing else at the top, so that the script's own ``import pwcalc.__main__``
loads no numpy before the collector is off.
"""

import gc
import os
import sys


def run():
    """Run one ``pwcalc`` call and end the process with its code."""
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        gc.enable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # its descriptor was closed when Python started
            continue
        try:
            stream.flush()
        except OSError:
            pass  # main has said why standard output failed
    os._exit(code)


if __name__ == "__main__":
    run()
