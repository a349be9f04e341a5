"""Compare two result files written by ``wmbench/run.py``.

    python3 wmbench/compare.py .wmbench_out/A.json .wmbench_out/B.json

Prints each metric of both results with the relative change, and flags
the comparison when the two were measured on machines whose
fingerprints differ (core count, CPU model, Python, numpy or the
multiprocessing start method): such a difference is not a change of
the program.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def fingerprint_diff(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """``key: a != b`` for every fingerprint field that differs."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def compare(base: dict, new: dict) -> List[str]:
    lines = [
        f"{base['workload']} seed {base['seed']} trace {base['trace']}  vs  "
        f"{new['workload']} seed {new['seed']} trace {new['trace']}"
    ]
    for diff in fingerprint_diff(base["fingerprint"], new["fingerprint"]):
        lines.append(f"FINGERPRINTS DIFFER {diff}")
    for name, before in base["metrics"].items():
        after = new["metrics"].get(name)
        if after is None:
            lines.append(f"{name}: {before:.6g} -> missing")
            continue
        change = f"{(after - before) / before:+.1%}" if before else "n/a"
        lines.append(
            f"{name}: {before:.6g} -> {after:.6g} {base['units'][name]} ({change})"
        )
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        base, new = json.load(fa), json.load(fb)
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
