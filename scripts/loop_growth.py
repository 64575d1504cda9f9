"""How fast does a loop's trace set grow with the unrolling bound?

For a body of two independent request chains the trace count at bound k is
sum_{n<=k} C(4n, 2n): every unrolled iteration adds four occurrences split
across two lifeline pairs. The traces are counted by weak-equivalence
class, not listed. Run with a diagram file to chart any loop.

    python3 scripts/loop_growth.py [--file diagrams/loop_pair.sd] [--max-bound 5]
"""

import argparse
import sys
import time
from pathlib import Path

from seqtrace import EvalLimits, Loop, TraceSetOverflowError, count_traces, parse, validate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--file",
        default=str(Path(__file__).resolve().parents[1] / "diagrams" / "loop_pair.sd"),
    )
    ap.add_argument("--max-bound", type=int, default=5)
    ap.add_argument("--max-traces", type=int, default=5_000_000)
    args = ap.parse_args()

    diagram = parse(Path(args.file).read_text(encoding="utf-8"))
    if not isinstance(diagram.root, Loop):
        print("the diagram's root must be a loop", file=sys.stderr)
        return 2
    if validate(diagram):
        print("the diagram does not validate cleanly", file=sys.stderr)
        return 2

    print(f"{'bound':>5}  {'traces':>10}  {'seconds':>8}")
    for k in range(args.max_bound + 1):
        limits = EvalLimits(loop_bound=k, max_traces=args.max_traces)
        start = time.perf_counter()
        try:
            count = count_traces(diagram.root, diagram.initial_namespace, limits)
        except TraceSetOverflowError:
            print(f"{k:>5}  {'> cap':>10}")
            break
        print(f"{k:>5}  {count:>10}  {time.perf_counter() - start:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
