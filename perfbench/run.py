"""loopcool benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: optimize_exact, sweep_weak, cold_cli (see perfbench/README.md).
With --trace 0 it reports the end-to-end metrics, with times stated at
reference machine speed (speed.py); with --trace 1 it runs the same
workload with span wrappers installed and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Spans, child
records and a result file go to perfbench/_work/.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import env  # noqa: E402  (pins BLAS/OpenMP threads before numpy loads)
import speed  # noqa: E402
import workloads  # noqa: E402

#: set-up probes in fresh interpreters, besides this process's own set-up
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setups(name: str, seed: int, workdir) -> list[dict]:
    """Cold set-ups in fresh interpreters, run one after another."""
    samples = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "probe.py"), name, str(seed),
             str(workdir / f"probe{k}")],
            cwd=env.ROOT, env=env.child_env(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _execute(w, k: int, outs: list, errors: list) -> None:
    t0 = perf_counter()
    try:
        out = w.execute(w.task(k))
    except Exception:  # a crash in the program is a failed operation
        errors.append(f"task {k} raised:\n{traceback.format_exc(limit=4)}")
        outs.append(None)
        return
    out["iv"] = (t0, perf_counter())
    outs.append(out)


def run_inproc(w, seconds: float, tracer, probe) -> dict:
    """Timed tasks in this process.  Untraced: tasks until `seconds` have
    passed (at least `w.min_tasks`), with the speed probe running.
    Traced: the deterministic prefix of `w.prefix` tasks once untraced and
    once traced (counts and overhead), then further traced tasks until
    `seconds` have passed."""
    from loopcool import optimize
    from spans import CallTimer, per_layer_metrics, raw_sums

    outs, errors = [], []
    if tracer is None:
        probe.start()
        timer = CallTimer(optimize, "evaluate")
        t_start, k = perf_counter(), 0
        while k < w.min_tasks or perf_counter() - t_start < seconds:
            _execute(w, k, outs, errors)
            k += 1
        t_end = perf_counter()
        timer.uninstall()
        probe.stop()
        return {"outs": outs, "errors": errors, "iv": (t_start, t_end),
                "evals": timer.intervals}

    setup_hi = len(tracer.spans)
    tracer.uninstall()
    t_start = perf_counter()
    for k in range(w.prefix):
        _execute(w, k, outs, errors)
    untraced_s = perf_counter() - t_start
    tracer.install()
    lo, t_traced = len(tracer.spans), perf_counter()
    for k in range(w.prefix):
        _execute(w, k, outs, errors)
    prefix_hi, traced_s = len(tracer.spans), perf_counter() - t_traced
    k = w.prefix
    while perf_counter() - t_start < seconds:
        _execute(w, k, outs, errors)
        k += 1
    wall = perf_counter() - t_traced
    tracer.uninstall()
    setup = raw_sums(tracer.spans, 0, setup_hi)
    layer = per_layer_metrics(
        raw_sums(tracer.spans, lo, prefix_hi), raw_sums(tracer.spans, lo), wall,
        presets_build_s=setup["layer_cover"].get("presets", 0.0),
        presets_occupancy_calls=setup["presets_occupancy_calls"],
        cli_import_s=0.0,
        overhead_pct=100.0 * (traced_s - untraced_s) / untraced_s,
    )
    return {"outs": outs, "errors": errors, "layer": layer}


def run_cold(w, seconds: float, traced: bool) -> dict:
    """CLI rounds until `seconds` have passed (at least `w.min_tasks`).
    Traced: round 0 runs untraced and every later round traced; round 1
    is the deterministic prefix the counts come from."""
    from spans import merge, per_layer_metrics, raw_sums

    outs = []
    t_start, r = perf_counter(), 0
    while r < w.min_tasks or perf_counter() - t_start < seconds:
        outs += w.run_round(r, traced and r >= 1)
        r += 1
    result = {"outs": outs, "errors": []}
    if not traced:
        return result
    runs = [o for o in outs if o["traced"] and o["record"] is not None]
    sums = [raw_sums(o["record"]["spans"]) for o in runs]
    counted, timed = {}, {}
    for o, s in zip(runs, sums):
        timed = merge(timed, s)
        if o["round"] == 1:
            counted = merge(counted, s)
    round_wall = [sum(o["wall_s"] for o in outs if o["round"] == k) for k in (0, 1)]
    result["layer"] = per_layer_metrics(
        counted, timed, sum(o["wall_s"] for o in runs),
        presets_build_s=env.median([s["layer_cover"].get("presets", 0.0) for s in sums]),
        presets_occupancy_calls=counted.get("presets_occupancy_calls", 0),
        cli_import_s=sum(o["record"]["t_imported"] - o["record"]["t0"] for o in runs),
        overhead_pct=100.0 * (round_wall[1] - round_wall[0]) / round_wall[0],
    )
    return result


def e2e_metrics(name: str, res: dict, setups: list[dict], model, raw: bool) -> tuple:
    """End-to-end metrics {name: (value, unit)} and their sample counts.
    Times are at reference speed, or raw with `raw`."""
    outs = [o for o in res["outs"] if o is not None]
    prefix = "raw_" if raw else ""
    if name == "cold_cli":
        # each child carries its own speed samples
        evals, by_round, busy = [], {}, 0.0
        for o in outs:
            rec = o["record"] or {}
            child = speed.SpeedModel([] if raw or "speed" not in rec else [rec["speed"]])
            evals += [child.adjusted(a, b) for a, b in rec.get("evals", [])]
            wall = child.adjusted(*o["iv"])
            by_round.setdefault(o["round"], []).append(wall)
            busy += wall
        # one task is a round; its time is the mean cold command time
        task = [sum(walls) / len(walls) for walls in by_round.values()]
        n_evals = len(evals)
        rss_kb = max((o["record"]["maxrss_kb"] for o in outs if o["record"]), default=0)
    else:
        adj = (lambda a, b: b - a) if raw else model.adjusted
        # a sweep's own evaluations lie on one line of the lattice, so they
        # count for throughput but are not independent latency samples
        sweeps = sorted(o["unit_iv"] for o in outs if "unit_iv" in o)
        starts = [a for a, _ in sweeps]

        def in_sweep(a: float, b: float) -> bool:
            i = bisect.bisect_right(starts, a) - 1
            return i >= 0 and b <= sweeps[i][1]

        n_evals = len(res["evals"])
        evals = [adj(a, b) for a, b in res["evals"] if not in_sweep(a, b)]
        task = [adj(*o.get("unit_iv", o["iv"])) for o in outs]
        busy = adj(*res["iv"])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (env.median([s[prefix + "setup_s"] for s in setups]), "s"),
        "import_s": (env.median([s[prefix + "import_s"] for s in setups]), "s"),
        "evals_per_s": (n_evals / busy, "1/s"),
        "eval_p50_ms": (1e3 * env.quantile(evals, 0.5), "ms"),
        "eval_p90_ms": (1e3 * env.quantile(evals, 0.9), "ms"),
        "task_s": (env.median(task), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setups), "import_s": len(setups), "evals_per_s": n_evals,
               "eval_p50_ms": len(evals), "eval_p90_ms": len(evals), "task_s": len(task),
               "peak_rss_mb": 1}
    return metrics, samples


def named_extras(name: str, res: dict) -> dict:
    """The workload's own headline numbers, raw: optimize_s, sweep_s or cli_<command>_s."""
    outs = [o for o in res["outs"] if o is not None]
    if name == "optimize_exact":
        return {"optimize_s": (env.median([o["iv"][1] - o["iv"][0] for o in outs]), "s")}
    if name == "cold_cli":
        return {f"cli_{c}_s": (env.median([o["wall_s"] for o in outs if o["command"] == c]), "s")
                for c in ("cooling", "solve", "preset", "ingest")}
    return {"sweep_s": (env.median([o["unit_iv"][1] - o["unit_iv"][0] for o in outs]), "s")}


def check_catalogue(metrics: dict, trace: int) -> None:
    """The reported metric set must be the one BENCHMARK.json declares."""
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: unit for k, (_, unit) in metrics.items()}
    if declared != reported:
        raise RuntimeError(f"metric set {reported} differs from BENCHMARK.json's {declared}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.use_checkout_source()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = env.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = probe = None
    if args.trace:
        if args.workload != "cold_cli":
            from spans import Tracer

            tracer = Tracer()
    else:
        probe = speed.SpeedProbe()
        probe.start()
    try:
        w, t_imported, t_ready = workloads.setup(
            args.workload, args.seed, workdir,
            before_prepare=tracer.install if tracer else None,
        )
    finally:
        if probe is not None:
            probe.stop()
    setups = []
    if probe is not None:
        own = speed.SpeedModel([probe.record()])
        setups.append(workloads.setup_times(own, T0, t_imported, t_ready))
        setups += probe_setups(args.workload, args.seed, workdir)

    if args.workload == "cold_cli":
        res = run_cold(w, args.seconds, bool(args.trace))
    else:
        res = run_inproc(w, args.seconds, tracer, probe)

    attempted = failed = len(res["errors"])
    errors = list(res["errors"])
    for out in res["outs"]:
        if out is None:
            continue
        n, errs = w.check(out)
        attempted += n
        failed += min(n, len(errs))
        errors += errs

    samples, raw = {}, {}
    if args.trace:
        metrics = res["layer"]
    else:
        model = speed.SpeedModel([probe.record()])
        metrics, samples = e2e_metrics(args.workload, res, setups, model, raw=False)
        raw, _ = e2e_metrics(args.workload, res, setups, model, raw=True)
    check_catalogue(metrics, args.trace)

    prov = env.provenance(args.seed)
    print(f"# loopcool benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        extra = f" (n={samples[name]}, raw {raw[name][0]:.6g})" if name in samples else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    for name, (value, unit) in named_extras(args.workload, res).items():
        print(f"{name} = {value:.6g} {unit} (raw)")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if args.trace and args.workload == "optimize_exact":
        # the traced prefix is the two criterion-7 problems; a change to
        # the exact path may move these counts, so this is a report, not a gate
        for name, at_seed in w.seed_commit_counts().items():
            print(f"# {name}: {metrics[name][0]} (seed commit: {at_seed})")
    for err in errors[:10]:
        print(f"error: {err}", file=sys.stderr)

    if tracer is not None:
        tracer.dump(workdir / "spans.jsonl")
    tasks = [{k: v for k, v in o.items() if k not in ("results", "record", "outdir", "stderr")}
             for o in res["outs"] if o is not None]
    (workdir / "result.json").write_text(json.dumps({
        "provenance": prov, "workload": args.workload, "trace": args.trace,
        "metrics": metrics, "raw_metrics": raw, "setups": setups, "tasks": tasks,
        "errors": errors,
    }, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
