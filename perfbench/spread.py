"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --workload meta-paper --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``) and prints, per metric, the median and the
interquartile range as a share of the median next to the metric's
bound.  The benchmark is steady when every spread but ``setup_s``'s is
well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import BENCH_DIR, ROOT, last_json_line  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        record = last_json_line(out.stdout)
        if not record["correct"]:
            print(f"seed {seed}: incorrect run", file=sys.stderr)
            return 1
        for name, m in record["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        run = next((json.loads(line.split(":", 1)[1])
                    for line in out.stdout.splitlines()
                    if line.startswith("perfbench run:")), {})
        print(f"seed {seed}: " + json.dumps(
            {k: round(m["value"], 4) for k, m in record["metrics"].items()})
            + f"  speed {run.get('speed_factor', 0):.3f}", flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:>18s}  median {med:10.4f}  spread {spread:6.3f}"
              f"  bound {m['bound']:.3f}"
              f"{'' if spread <= m['bound'] / 3 else '  <-- wide'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
