"""Run every workload once, each in a fresh process, and print its metrics.

    python3 perfbench/all.py --seed 1 [--seconds 30] [--trace 1]

Each workload prints its metrics with units and sample counts, its machine
record and its report digest (see run.py).  `--trace 1` adds a traced run of
each workload for the per-layer metrics.  Exits non-zero if any run does.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    status = 0
    for trace in sorted({0, args.trace}):
        for name in workloads.WORKLOADS:
            sys.stdout.flush()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                check=False,
            )
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    raise SystemExit(main())
