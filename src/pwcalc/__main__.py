"""The process entry: ``python -m pwcalc`` and the ``pwcalc`` script both
call ``run``.

Importing numpy and the library leaves some 22,000 objects tracked by the
cyclic collector, which would scan them in the collections it makes during
the imports and again at interpreter exit. ``run`` imports the command line
with the collector off and freezes what the imports left, so no later
collection scans it; then it turns the collector back on and runs the call.
``cli.main`` itself touches no collector state, so library users and
in-process calls are unaffected. This module imports nothing else at the
top, so that the script's own ``import pwcalc.__main__`` loads no numpy
before the collector is off.
"""

import gc
import sys


def run():
    """Run one ``pwcalc`` call and exit with its code."""
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    run()
