"""Show that two seeds give every workload the same work sizes.

    python3 perfbench/seed_check.py

For each workload and seed it generates the inputs and lists the closed-form
trace counts, log lines and messages, and the bytes, lines and message
statements of every generated file. Exits 1 if any size differs.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 977)


def sizes(name: str, seed: int, work: Path) -> dict[str, int]:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = dict(WORKLOADS[name](seed, work).sizes)
    for path in sorted(work.iterdir()):
        text = path.read_text(encoding="utf-8")
        out[f"{path.name}.bytes"] = len(text.encode("utf-8"))
        out[f"{path.name}.lines"] = text.count("\n")
        out[f"{path.name}.statements"] = text.count("->")
    return out


def main() -> int:
    differ = 0
    for name in WORKLOADS:
        per_seed = [sizes(name, s, HERE / ".work" / "seed_check" / f"{name}-{s}") for s in SEEDS]
        for key in sorted(per_seed[0].keys() | per_seed[1].keys()):
            a, b = (p.get(key) for p in per_seed)
            mark = "" if a == b else "   DIFFERS"
            differ += a != b
            print(f"{name:8s} {key:32s} {a!s:>10} {b!s:>10}{mark}")
    print(f"seeds {SEEDS[0]} and {SEEDS[1]}: "
          + ("same sizes" if not differ else f"{differ} sizes differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
