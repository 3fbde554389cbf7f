#!/usr/bin/env python3
"""Closed-loop mission benchmark for hybridplan.

    python3 perfbench/run.py --workload known_yard --seed 1 --seconds 15 --trace 0

Drives complete missions through `cli.execute_run` (the function `plan run`
calls), one after another in one thread, and checks each mission's outputs
and exact counters against `perfbench/reference.json`.  The last line of
stdout is one JSON object: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  Run artefacts (mission
outputs, run summaries, Chrome traces) go to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import betainc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 9

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p95", "ms"),
    ("plan_ms_p50", "ms"),
    ("plan_s_cum", "s"),
    ("peak_rss_mb", "MB"),
    ("path_length_m", "m"),
    ("kappa_dot_rms", "1/m2"),
    ("p_max", "ratio"),
]
COUNTERS = ("ticks", "planner_calls", "cumulative_nodes", "cells_revealed",
            "edt_rebuilds", "analytic_attempts")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1, help="mission order of clutter_short")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="run length; sets the mission count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scene-seed", type=int, default=None,
                   help="clutter_short scene set (default: the one with stored references)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this traced run's outputs as the reference")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's sources first on the path; fail without them."""
    src = ROOT / "src"
    if not (src / "hybridplan" / "__init__.py").is_file():
        sys.exit(f"error: hybridplan sources not found under {src}")
    sys.path.insert(0, str(src))


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {"missions": {}, "layers_called": {}}


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("path.json", "events.log"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def drive(missions, probe, out_dir: Path, clock=None):
    """Run the missions back to back; one record per mission, None if it raised.

    With a speed `clock`, the host speed is also sampled between missions.
    Returns the records and the run's start and end times.
    """
    from hybridplan import cli

    layers = probe.layers
    records = []
    if clock is not None:
        clock.sample(force=True)
    start = time.perf_counter()
    for m in missions:
        if clock is not None:
            clock.sample(force=True)
        probe.begin_mission(m.mission_id)
        first_span = len(probe.spans)
        before = (layers["grid.raytrace_reveal"].counts["cells_revealed"],
                  layers["grid.distance_transform"].calls,
                  layers["planner.analytic_expansions"].calls)
        try:
            report, events = cli.execute_run(cli.RunConfig(scenario=m.mission_id, mode=m.mode),
                                             m.spec, out_dir, with_timing=False)
        except Exception:  # a mission that raises is counted failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            records.append(None)
            continue
        ticks = [s for s in probe.spans[first_span:] if s[0] == "mission.mission_tick"]
        entries = [s[1] for s in ticks]
        records.append({
            "mission": m.mission_id,
            "digest": output_digest(out_dir),
            "ticks": len(ticks),
            "planner_calls": report.n_planner_calls,
            "cumulative_nodes": report.cumulative_nodes,
            "cells_revealed": layers["grid.raytrace_reveal"].counts["cells_revealed"] - before[0],
            "edt_rebuilds": layers["grid.distance_transform"].calls - before[1],
            "analytic_attempts": layers["planner.analytic_expansions"].calls - before[2],
            "reached": report.reached,
            # one tick runs from one mission_tick entry to the next
            "tick_bounds": list(zip(entries, entries[1:] + [ticks[-1][2]])),
            "plans": [(e.step, e.seconds) for e in events],
            "replans": Counter(e.cause for e in events),
            "t_cum": report.t_cum,
            "length": report.length,
            "kappa_dot_rms": report.kappa_dot_rms,
            "p_max": report.p_max,
        })
    end = time.perf_counter()
    if clock is not None:
        clock.sample(force=True)
    return records, start, end


def check(records, reference: dict) -> int:
    """Compare each mission with its stored reference; returns the failures.

    A mission without a stored reference is compared with its first run in
    this process, and its digest and counters are printed so that two
    commits can be compared by hand.
    """
    failed = 0
    seen = {}
    for rec in records:
        if rec is None:
            failed += 1
            continue
        observed = {k: rec[k] for k in ("digest",) + COUNTERS}
        ref = reference["missions"].get(rec["mission"]) or seen.get(rec["mission"])
        if ref is None:
            seen[rec["mission"]] = observed
            print(f"unreferenced {rec['mission']}: {json.dumps(observed, sort_keys=True)}")
        elif ref != observed:
            failed += 1
            diff = {k: (ref.get(k), observed[k]) for k in observed if ref.get(k) != observed[k]}
            print(f"MISMATCH {rec['mission']}: (reference, observed) {diff}", file=sys.stderr)
    return failed


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics: unlike a single order
    statistic it does not jump between neighbouring values when timing noise
    reorders them, which matters for the median of ~15 planner calls.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def end_to_end(records, clock, setup_s: float, run_s: float) -> dict:
    """The end-to-end metrics; every time is normalised to the reference speed.

    A planner call, timed by the program itself, is scaled like the tick it
    ran in; a failed call (in `t_cum` but not in the events) like the last tick.
    """
    ticks_ms = []
    plans_ms = []
    plan_s_cum = 0.0
    for r in filter(None, records):
        raw = [clock.work_s(a, b, normalised=False) for a, b in r["tick_bounds"]]
        ref = [clock.work_s(a, b) for a, b in r["tick_bounds"]]
        ticks_ms += [t * 1e3 for t in ref]
        scale = [n / w for n, w in zip(ref, raw)]
        plans = [seconds * scale[step] for step, seconds in r["plans"]]
        plans_ms += [t * 1e3 for t in plans]
        plan_s_cum += sum(plans) + (r["t_cum"] - sum(sec for _, sec in r["plans"])) * scale[-1]
    done = [r for r in records if r is not None]
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "tick_ms_p50": quantile(ticks_ms, 0.5),
        "tick_ms_p95": quantile(ticks_ms, 0.95),
        "plan_ms_p50": quantile(plans_ms, 0.5),
        "plan_s_cum": plan_s_cum,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "path_length_m": sum(r["length"] for r in done),
        "kappa_dot_rms": statistics.fmean(r["kappa_dot_rms"] for r in done),
        "p_max": max(r["p_max"] for r in done),
    }


def layer_guard(probe, expected: dict) -> list:
    """Layers the reference run called on this workload that now report none."""
    return [name for name, calls in sorted(expected.items())
            if calls > 0 and probe.layers[name].calls == 0]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import probe as probe_mod
    import speed
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {list(workloads.NAMES)}")
    scene_seed = workloads.SCENE_SEED if args.scene_seed is None else args.scene_seed
    if args.write_reference and (not args.trace or scene_seed != workloads.SCENE_SEED):
        sys.exit("error: --write-reference needs --trace 1 and the default scene seed")
    reference = load_reference()

    # A traced run reports raw times and samples no host speed.
    clock = None if args.trace else speed.SpeedClock()
    layers = probe_mod.SITES if args.trace else probe_mod.COUNTED
    out_dir = OUT / "missions" / args.workload
    OUT.mkdir(parents=True, exist_ok=True)
    setup_times = []
    with probe_mod.Probe(layers, before_tick=clock and clock.sample) as probe:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if clock is not None:
                clock.sample(force=True)
            t0 = time.perf_counter()
            missions = workloads.build(args.workload, args.seconds, args.seed, scene_seed)
            setup_times.append((t0, time.perf_counter()))
        records, start, end = drive(missions, probe, out_dir, clock)
    # wall time of the missions without calibrations, for the tracing overhead
    run_work_s = end - start if clock is None else clock.work_s(start, end, normalised=False)

    failed = check(records, reference)
    replans = sum((r["replans"] for r in records if r is not None), Counter())
    missing = layer_guard(probe, reference["layers_called"].get(args.workload, {})) \
        if args.trace else []
    for name in missing:
        print(f"GUARD {name}: called in the reference run, 0 calls now", file=sys.stderr)
    if not any(records):
        print("error: every mission raised", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}"
    summary = {"workload": args.workload, "seed": args.seed, "scene_seed": scene_seed,
               "seconds": args.seconds, "trace": args.trace, "missions": len(records),
               "failed": failed, "run_work_s": run_work_s,
               "records": [None if r is None else {k: v for k, v in r.items()
                                                   if k not in ("tick_bounds", "plans")}
                           for r in records]}
    if args.trace:
        metrics = probe.per_layer(replans, run_work_s)
        units = dict(probe_mod.PER_LAYER)
        untraced = OUT / f"{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text(encoding="utf-8"))
            if base["seconds"] == args.seconds and base["scene_seed"] == scene_seed:
                summary["tracing_overhead_s"] = run_work_s - base["run_work_s"]
        summary["per_layer"] = metrics
        probe.write_chrome_trace(OUT / f"{stem}.trace.json", summary)
        top = sorted((v, k) for k, v in metrics.items()
                     if k.endswith(".self_s"))[::-1][:6]
        print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        if "tracing_overhead_s" in summary:
            print(f"tracing overhead: {summary['tracing_overhead_s']:.3f} s "
                  f"(traced minus untraced wall time of the missions)")
        if args.write_reference:
            for rec in filter(None, records):
                reference["missions"][rec["mission"]] = {k: rec[k] for k in ("digest",) + COUNTERS}
            reference["layers_called"][args.workload] = {
                name: layer.calls for name, layer in sorted(probe.layers.items())}
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    else:
        metrics = end_to_end(records, clock,
                             statistics.median(clock.work_s(a, b) for a, b in setup_times),
                             clock.work_s(start, end))
        units = dict(END_TO_END)
        summary["end_to_end"] = metrics
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{args.workload}: {len(records)} missions, {failed} failed "
          f"(failed_frac {failed / len(records):g} ratio)")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    result = {"correct": failed == 0 and not missing, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
