"""Benchmark worker: one fresh interpreter that imports `cohlim.cli` from the
checkout's `src/`, loads the workload config, prints READY, and (in run
mode) times `cli.main` invocations until the time budget is spent.

Each invocation is gated for correctness outside its timed region and its
outputs are removed.  In trace mode, untraced and traced invocations
alternate, so the tracing overhead is measured in the same process.
Results go to a JSON file, spans to another; stdout carries only READY.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of the worker
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _invoke(cli, argv):
    """Run cli.main; return (exit code, error text or None)."""
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv), None
    except Exception as exc:  # noqa: BLE001 - a crash is a failed invocation
        return 1, f"{type(exc).__name__}: {exc}"


def _layers(span_list, wall: float) -> dict:
    import spans

    summary = spans.summarize(span_list)

    def agg(name, key):
        return summary.get(name, {}).get(key, 0)

    return {
        "ito_sampler.sample_chi_s": agg("ito_sampler.sample_chi", "total_s"),
        "ito_sampler.sample_chi_calls": agg("ito_sampler.sample_chi", "calls"),
        "ito_sampler.share": agg("ito_sampler.sample_chi", "total_s") / wall,
        "functionals.fock_functional_s": agg("functionals.fock_functional", "total_s"),
        "functionals.fock_functional_calls": agg("functionals.fock_functional", "calls"),
        "functionals.sigma_mu_sq_s": agg("functionals.sigma_mu_sq", "total_s"),
        "cli.self_s": agg("cli.run_experiment", "self_s"),
        "moments.wick_moment_s": agg("moments.wick_moment", "total_s"),
        "moments.wick_moment_share": agg("moments.wick_moment", "total_s") / wall,
        "moments.build_q_s": agg("moments.build_q", "total_s"),
        "moments.mc_oracle_self_s": agg("moments.mc_oracle", "self_s"),
        "dynamics.sigma_t_s": agg("dynamics.sigma_t", "total_s"),
        "dynamics.sigma_t_calls": agg("dynamics.sigma_t", "calls"),
        "dynamics.uniformization_metric_self_s": agg("dynamics.uniformization_metric", "self_s"),
        "dynamics.share": spans.top_level_s(span_list, "dynamics.") / wall,
        "config.build_s": sum(v["total_s"] for k, v in summary.items() if k.startswith("config.")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--src", required=True, help="the checkout's src/ directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--work", help="directory for outputs and the result file")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import cohlim.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"cohlim was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.cfgmod.load_config(args.config)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    # Imported after READY so that set-up time is the program's alone.
    import gate
    import spans
    import workloads

    wl = workloads.generate(args.workload, args.seed)
    ref = gate.load_reference(args.workload)
    stochastic = "seed" in wl.config
    work = Path(args.work)

    warm_dir = work / "warmup"
    warm_code, warm_err = _invoke(cli, wl.argv(args.config, warm_dir, warmup=True))
    shutil.rmtree(warm_dir, ignore_errors=True)

    tracer = spans.Tracer() if args.trace else None
    all_spans = []
    invocations = []
    started = time.perf_counter()
    i = 0
    # In trace mode run at least one untraced and one traced invocation.
    while i < (2 if tracer else 1) or time.perf_counter() - started < args.seconds:
        traced = tracer is not None and i % 2 == 1
        seed = workloads.invocation_seed(args.seed, i) if stochastic else None
        out_dir = work / f"inv{i}"
        argv_i = wl.argv(args.config, out_dir, seed=seed)
        gc.collect()
        if traced:
            tracer.install()
        c0, t0 = _cpu_s(), time.perf_counter()
        code, err = _invoke(cli, argv_i)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        if traced:
            tracer.uninstall()
        failures = [err] if err else []
        failures += gate.check(args.workload, out_dir, code, wl.sizes, ref)
        inv = {
            "index": i,
            "seed": seed,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "exit_code": code,
            "failures": failures,
            "output_bytes": _tree_bytes(out_dir) if out_dir.exists() else 0,
        }
        if traced:
            span_list = tracer.take()
            inv["layers"] = {**_layers(span_list, wall), "cli.output_bytes": inv["output_bytes"]}
            all_spans.append({"invocation": i, "spans": [[s.name, s.start, s.end, s.parent] for s in span_list]})
        invocations.append(inv)
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1

    result = {
        "warmup": {"exit_code": warm_code, "error": warm_err},
        "invocations": invocations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (work / "worker.json").write_text(json.dumps(result))
    if all_spans:
        (work / "spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "invocations": all_spans})
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
