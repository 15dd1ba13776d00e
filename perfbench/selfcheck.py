"""Determinism self-check: two traced runs of each workload with the same seed
must give the same answer digest and the same per-layer counts.

    python3 perfbench/selfcheck.py --seed 7 --seconds 5

Exits 1 and names every difference when the runs disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNT_UNITS = ("count", "bytes")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    details = json.loads((ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}
    return details["digest"], counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=5.0)
    args = p.parse_args(argv)
    mismatches = 0
    for workload in WORKLOADS:
        (d1, c1), (d2, c2) = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        diffs = [f"digest {d1} != {d2}"] if d1 != d2 or d1 is None else []
        diffs += [f"{k}: {c1.get(k)} != {c2.get(k)}" for k in sorted(c1.keys() | c2.keys())
                  if c1.get(k) != c2.get(k)]
        print(f"{workload}: {'same' if not diffs else 'DIFFERENT'} digest={d1} counts={len(c1)}")
        for line in diffs:
            print(f"  {line}")
        mismatches += len(diffs)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
