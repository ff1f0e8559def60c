#!/usr/bin/env python3
"""Compare sdsbench runs of two builds (e.g. a parent commit and a change).

Collect each side's runs by appending run.py's stdout to one file per
side, alternating which side runs first:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 sdsbench/run.py --workload W --seed $seed --seconds 30) >> parent.txt
      (cd change && python3 sdsbench/run.py --workload W --seed $seed --seconds 30) >> change.txt
    done
    python3 sdsbench/compare.py parent.txt change.txt

Every `SDSBENCH {...}` line is one run. For each (workload, metric) the
table gives each side's quartiles and median, the change of the median
and the run counts. It claims nothing: judging a gain is left to the
reader (a win needs the medians to differ by more than the parent's own
quartile spread).
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("SDSBENCH "):
                continue
            run = json.loads(line[len("SDSBENCH "):])
            for r in run["results"]:
                runs.setdefault((r["workload"], r["metric"], r["unit"]), []).append(
                    r["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    print(f"{'workload':22} {'metric':36} {'unit':6} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8} {'n':>5}")
    for key in sorted(set(parent) & set(change)):
        workload, metric, unit = key
        p1, pm, p3 = quartiles(parent[key])
        c1, cm, c3 = quartiles(change[key])
        delta = (cm - pm) / pm * 100 if pm else float("nan")
        print(f"{workload:22} {metric:36} {unit:6} "
              f"{p1:9.4g}/{pm:9.4g}/{p3:9.4g}  {c1:9.4g}/{cm:9.4g}/{c3:9.4g} "
              f"{delta:+7.2f}% {len(parent[key])}/{len(change[key])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
