"""The ``seqtrace`` program: ``python -m seqtrace`` and the installed script.

Every value a command builds is acyclic: a fragment tree of tuples and
frozen values, and classes held as tuples and dicts. Reference counting
frees all of it, so the program runs without the cyclic collector, whose
passes would find nothing to reclaim. ``seqtrace.cli.main`` itself leaves
the collector as it finds it, for callers in a process of their own.

Once ``seqtrace.cli.main`` has returned its exit code, the program ends the
process itself, as mypy's ``util.hard_exit`` does: it runs the exit
handlers, flushes stdout and stderr, and calls ``os._exit``. Tearing the
interpreter down would clear every module and free every object still
alive, only for the process to exit. An exception that escapes
``cli.main`` (a usage error or ``--help`` is ``SystemExit``), a flush that
raises, and ``python -i`` take the interpreter's normal exit.
"""

import atexit
import gc
import os
import sys


def main() -> int:
    gc.disable()
    from seqtrace.cli import main as cli_main

    code = cli_main()
    if sys.flags.inspect:
        return code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except Exception:  # the normal exit meets the same error, and reports it
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
