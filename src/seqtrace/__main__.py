"""The ``seqtrace`` program: ``python -m seqtrace`` and the installed script.

Every value a command builds is acyclic: a fragment tree of tuples and
frozen values, and classes held as tuples and dicts. Reference counting
frees all of it, so the program runs without the cyclic collector, whose
passes would find nothing to reclaim. ``seqtrace.cli.main`` itself leaves
the collector as it finds it, for callers in a process of their own.
"""

import gc
import sys


def main() -> int:
    gc.disable()
    from seqtrace.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
