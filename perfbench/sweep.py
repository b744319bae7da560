"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                               [--seconds S] [--out FILE]

Each (workload, seed) is one ``run.py`` process, run one after another,
every workload for one seed before the next seed. For
every metric the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (interquartile distance
over the median), next to the metric's bound from BENCHMARK.json. With
``--out`` the summary, the environment and, per seed, the metric values and
the output digest are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        default=None, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report: dict = {"seeds": parse_seeds(args.seeds), "trace": args.trace,
                    "seconds": args.seconds, "workloads": {}}
    values: dict[str, dict[str, list[float]]] = {name: {} for name in workloads}
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    # Seeds outside, workloads inside: a slow period of the machine then falls
    # on every workload rather than on a few seeds of one.
    for seed in report["seeds"]:
        for name in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((ROOT / ".perfbench" / "results" /
                                 f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            report["environment"] = detail["environment"]
            runs[name].append({"seed": seed, "correct": result["correct"],
                               "attempted": result["attempted"], "failed": result["failed"],
                               "output_digest": detail["digest"],
                               "values": {m: v["value"] for m, v in result["metrics"].items()}})
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} ops",
                  file=sys.stderr, flush=True)
    for name in workloads:
        summary = {m: summarise(v) for m, v in values[name].items()}
        report["workloads"][name] = {"runs": runs[name], "metrics": summary}
        for metric, s in summary.items():
            bound = bounds.get(metric)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{name:18s} {metric:36s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}"
                  + (f" bound {bound}" if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
