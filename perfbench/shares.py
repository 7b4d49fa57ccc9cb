"""Share of a span's time spent in each kind of span below it.

Reads a trace written by ``run.py --trace 1`` and, for every span named
``--parent``, sums the time of descendant spans by name. Nested spans
of the same name are counted once, at the outermost one.

    python3 perfbench/shares.py perfbench/out/trace-fbs-synth-seed0.json --parent fbs.importance
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict


def shares(events: list[dict], parent: str) -> tuple[float, dict[str, float]]:
    by_id = {e["args"]["span"]: e for e in events}
    roots = {i for i, e in by_id.items() if e["name"] == parent}
    total = sum(by_id[i]["dur"] for i in roots)
    below: dict[str, float] = defaultdict(float)
    for i, e in by_id.items():
        names_above = []
        p = e["args"]["parent"]
        while p >= 0 and p not in roots:
            names_above.append(by_id[p]["name"])
            p = by_id[p]["args"]["parent"]
        if p >= 0 and e["name"] not in names_above:
            below[e["name"]] += e["dur"]
    return total, {k: v / total for k, v in below.items()} if total else {}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--parent", required=True)
    args = ap.parse_args()
    with open(args.trace) as fh:
        events = json.load(fh)["traceEvents"]
    total, share = shares(events, args.parent)
    print(f"{args.parent}: {total / 1e6:.3f} s in the traced pass")
    for name, s in sorted(share.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {100 * s:6.2f}%")


if __name__ == "__main__":
    main()
