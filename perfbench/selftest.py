#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Fails (exit code 1) when a call site in `probe.SITES` no longer exists, when
a probe does not restore every attribute it wrapped, when BENCHMARK.json and
the metrics run.py reports disagree, when a mission of a workload's default
run has no stored reference, or when a traced clutter_short run reports zero
calls on a layer that the reference run called.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main() -> int:
    run.import_program()
    import probe
    import workloads

    errors = []
    for sites in probe.SITES.values():
        for site in sites:
            try:
                probe.resolve(site)
            except LookupError as exc:
                errors.append(str(exc))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1

    originals = {site: getattr(*probe.resolve(site)) for s in probe.SITES.values() for site in s}
    with probe.Probe(probe.SITES):
        for site, fn in originals.items():
            if getattr(*probe.resolve(site)).__wrapped__ is not fn:
                errors.append(f"{site} is not wrapped")
    for site, fn in originals.items():
        if getattr(*probe.resolve(site)) is not fn:
            errors.append(f"{site} not restored")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", probe.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(reported):
            errors.append(f"BENCHMARK.json {key} differs from what run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        errors.append("BENCHMARK.json workloads differ from workloads.NAMES")

    reference = run.load_reference()
    for name in workloads.NAMES:
        missions = workloads.build(name, spec["run_seconds"], seed=1)
        missing = sorted({m.mission_id for m in missions} - set(reference["missions"]))
        if missing:
            errors.append(f"{name}: no stored reference for {missing}")
        unknown = set(reference["layers_called"].get(name, {})) - set(probe.SITES)
        if unknown:
            errors.append(f"{name}: reference names unknown layers {sorted(unknown)}")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.main(["--workload", "clutter_short", "--seconds", str(spec["run_seconds"]),
                  "--trace", "1"])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    if not result["correct"]:
        errors.append("traced clutter_short run is not correct (see GUARD/MISMATCH above)")

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest:", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
