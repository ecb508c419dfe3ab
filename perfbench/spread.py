"""Run one workload over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload fig7_alexnet_w2 --seeds 1-10 --seconds 12

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure that BENCHMARK.json's ``bound`` must cover.  ``host_probe_s``
(metadata, not a metric) shows whether the host itself ran slower.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="12")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        detail, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        values.setdefault("host_probe_s", []).extend(detail["detail"]["host_probe_s"])
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items())
            + ", host_probe_s=%.4g/%.4g" % tuple(detail["detail"]["host_probe_s"]), flush=True)
    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) > 1 and mid:
            q1, _, q3 = statistics.quantiles(series, n=4)
            print(f"{name}: median {mid:.5g}  spread {(q3 - q1) / abs(mid):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
