"""cohlim benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload chi_table --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Set-up is timed in fresh interpreters (SETUP_PROBES probes that exit at
READY, then the run worker itself; median).  The run worker then times
`cohlim` invocations for `--seconds`, after one small untimed warm-up call.
BLAS threads are capped at the number of usable CPUs; `--threads` and
COHLIM_THREADS are not passed, as the program never applies them.

--trace 0 prints the end-to-end metrics of untraced invocations; --trace 1
prints per-layer metrics from traced invocations (medians), plus the tracing
overhead measured against untraced invocations in the same worker.  The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment and input sizes, which are also written, with
every invocation, to .bench_build/cohlim/<workload>-<seed>/record.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # plus the run worker's own start-up: median of 4
DEADLINE_S = 170.0  # a run must end within 180 s
READY_TIMEOUT_S = 30.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "ito_sampler.sample_chi_s": "s",
    "ito_sampler.sample_chi_calls": "count",
    "ito_sampler.share": "ratio",
    "functionals.fock_functional_s": "s",
    "functionals.fock_functional_calls": "count",
    "functionals.sigma_mu_sq_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "moments.wick_moment_s": "s",
    "moments.wick_moment_share": "ratio",
    "moments.build_q_s": "s",
    "moments.mc_oracle_self_s": "s",
    "dynamics.sigma_t_s": "s",
    "dynamics.sigma_t_calls": "count",
    "dynamics.uniformization_metric_self_s": "s",
    "dynamics.share": "ratio",
    "config.build_s": "s",
    "trace.overhead_s": "s",
}


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": nproc,
        "platform": platform.platform(),
    }


class Worker:
    """A worker process; `ready_s` is the time from spawn to READY."""

    def __init__(self, args: list, env: dict):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.ready_s = None
        if select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)[0]:
            if self.proc.stdout.readline().strip() == "READY":
                self.ready_s = time.perf_counter() - t0
        if self.ready_s is None:
            self.proc.kill()

    def finish(self, timeout: float) -> int:
        try:
            self.proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return -9
        return self.proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "cohlim" / "cli.py").is_file():
        print(f"error: no cohlim source tree at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("COHLIM_THREADS", None)
    env.pop("PYTHONPATH", None)

    work = ROOT / ".bench_build" / "cohlim" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.generate(args.workload, args.seed)
    config = wl.write(work)
    common = ["--src", str(SRC), "--workload", args.workload, "--config", str(config)]
    load_start = os.getloadavg()[0]

    setup = []
    for _ in range(SETUP_PROBES):
        probe = Worker(["--mode", "setup", *common], env)
        code = probe.finish(DEADLINE_S - (time.perf_counter() - started))
        if probe.ready_s is None or code != 0:
            print(f"error: set-up probe failed (exit {code})", file=sys.stderr)
            return 1
        setup.append(probe.ready_s)

    run_args = ["--mode", "run", *common, "--work", str(work), "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker = Worker(run_args, env)
    setup.append(worker.ready_s)
    code = worker.finish(DEADLINE_S - (time.perf_counter() - started))
    result_file = work / "worker.json"
    if None in setup or code != 0 or not result_file.exists():
        print(f"error: benchmark worker failed (exit {code})", file=sys.stderr)
        return 1
    res = json.loads(result_file.read_text())
    invs = res["invocations"]
    failed = sum(1 for inv in invs if inv["failures"])
    for inv in invs:
        for msg in inv["failures"]:
            print(f"FAIL invocation {inv['index']} (seed {inv['seed']}): {msg}", file=sys.stderr)

    plain = [inv for inv in invs if not inv["traced"]]
    if args.trace:
        traced = [inv for inv in invs if inv["traced"]]
        values = {k: statistics.median(inv["layers"][k] for inv in traced) for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(inv["wall_s"] for inv in traced)
                                      - statistics.median(inv["wall_s"] for inv in plain))
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(inv["wall_s"] for inv in plain),
            "cpu_s": statistics.median(inv["cpu_s"] for inv in plain),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (len(invs) - failed) / len(invs),
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workloads.WHY[args.workload],
        "inputs": wl.sizes,
        "environment": {**environment(nproc), "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0]},
        "setup_s_samples": setup,
        "invocations": len(invs),
        "run_s": time.perf_counter() - started,
    }
    (work / "record.json").write_text(json.dumps({**record, "worker": res, "metrics": values}, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
