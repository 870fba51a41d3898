"""Repeat the benchmark over several seeds and summarise each metric by its
median, quartiles and spread ((q3 - q1) / median), the statistics a change
is judged by.

    python3 benchmark/baseline.py --seeds 1-10 [--trace 0|1] [--workloads a,b] [--out FILE]

Runs one `run.py` process at a time, from the repository root, with the
run length fixed in BENCHMARK.json.
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


def _seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = (int(x) for x in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in spec.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write the summary JSON here as well as to stdout")
    args = ap.parse_args(argv)

    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            env = json.loads(lines[-2])["environment"]
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "loadavg_1m": [env["loadavg_1m_start"], env["loadavg_1m_end"]],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        metrics = {k: summarize([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        summary["workloads"][name] = {
            "runs": len(runs),
            "invocations": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
            "loadavg_1m": [r["loadavg_1m"] for r in runs],
        }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
