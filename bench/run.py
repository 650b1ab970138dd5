#!/usr/bin/env python3
"""canvdw benchmark: one stdlib-only command, one process, one caller.

    python3 bench/run.py --workload {pruned,oracle,certify}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from the
checkout's ``src``.  The run sets the workload up several times (fresh
imports each time; at least five, more while they take under a second in
all) and reports the median set-up time, then runs whole
passes over the workload for about ``--seconds`` of pass time.
Every answer is checked; a wrong one counts as failed and makes the exit
code 1.  The last line of stdout is the JSON result; the lines before it
print every metric by name with its unit.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the run first measures untraced passes, then re-imports the
library, wraps its public names (see spans.py) and measures traced passes;
the result carries the per-layer metrics and the tracing overhead, and the
spans are written to ``bench/out``.  What each metric means and which
end-to-end metric it should move is listed in bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS, Gate, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-ups per run: at least SETUP_REPS, and more, up to SETUP_MAX_REPS,
# while all of them together take less than SETUP_MIN_S.
SETUP_REPS = 5
SETUP_MAX_REPS = 15
SETUP_MIN_S = 1.0
# Share of --seconds given to untraced passes in a traced run.
UNTRACED_SHARE = 0.4
SPAN_CAP = 200_000
MODULES = ("polynomial", "coloring", "witness", "search", "cli")

# The metric names and units the result line carries: end-to-end ones
# with --trace 0, per-layer ones with --trace 1.  Every traced run reports
# every per-layer metric; a layer the workload does not exercise reads 0.
SPEC = ROOT / "BENCHMARK.json"


def fresh_import():
    """Import canvdw from the checkout, discarding any loaded copy, so each
    set-up pays the imports and starts with empty library caches."""
    for name in [n for n in sys.modules if n == "canvdw" or n.startswith("canvdw.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"canvdw.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: canvdw was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(cls, seed, workdir):
    """Complete set-ups; returns the last workload and the times."""
    times = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        lib = fresh_import()
        workload = cls(lib, seed, workdir)
        times.append(time.perf_counter() - t0)
    return workload, times


def run_passes(workload, seconds, gate, on_pass=None):
    """Whole passes for about `seconds` of pass time (at least one): another
    pass starts only if, at the mean pass time so far, less than half of it
    would fall past `seconds`.  Each pass is checked after it ends, outside
    the timed region."""
    passes = []
    spent = 0.0
    while not passes or spent + spent / len(passes) / 2 < seconds:
        result = workload.run_pass()
        if on_pass is not None:
            on_pass(result)
        result["checked"] = workload.check_pass(result, gate)
        # Answers are checked; dropping them keeps peak memory the library's.
        result.pop("answers", None)
        result.pop("outcomes", None)
        passes.append(result)
        spent += result["wall"]
    return passes


def workload_metrics(workload, passes) -> dict:
    """End-to-end figures, each as (value, unit)."""
    return {
        "wall_s": (median([p["wall"] for p in passes]), "s"),
        "passes": (len(passes), "count"),
        **workload.figures(passes),
    }


def layer_metrics(snaps, passes, untraced_wall, probes) -> dict:
    """Per-layer metrics from per-pass tracer snapshots: medians over traced
    passes for times, the first traced pass for exact counts."""

    def div(a, b):
        return a / b if b else 0.0

    def calls(snap, key):
        return snap.get(key, (0, 0.0, 0.0))[0]

    def total(snap, key):
        return snap.get(key, (0, 0.0, 0.0))[1]

    def self_s(key):
        return median([s.get(key, (0, 0.0, 0.0))[2] for s in snaps])

    def per_call_us(*keys):
        # Time of all named spans per call of the first one.
        return median([div(sum(total(s, k) for k in keys), calls(s, keys[0])) * 1e6 for s in snaps])

    first = snaps[0]
    checked = passes[0]["checked"]
    nodes = checked.get("nodes", 0)
    find_calls = calls(first, "witness.find_witness")
    verify_calls = calls(first, "witness.verify_certificate")
    digests = calls(first, "coloring.colouring_digest")
    walls = {w: median([p["walls"][w] for p in passes]) if "walls" in passes[0] else 0.0 for w in (1, 2)}
    return {
        "search.canonical_number.self_s": self_s("search.canonical_number"),
        "search.nodes_expanded": nodes,
        "search.prune_frac": div(nodes - checked.get("survivors", 0), nodes),
        "search.plan_build_s": probes.get("search.plan_build_s", 0.0),
        "search.naive_canonical_number.self_s": self_s("search.naive_canonical_number"),
        "search.naive.colourings_examined": checked.get("examined", 0),
        "search.wall_1w_s": walls[1],
        "search.wall_2w_s": walls[2],
        "cli.main.self_s": self_s("cli.main"),
        "witness.find_witness.calls": find_calls,
        "witness.find_witness.us": per_call_us("witness.find_witness"),
        "witness.find_witness.self_s": self_s("witness.find_witness"),
        "witness.find_witness.hit_frac": div(first["find_hits"], find_calls),
        "witness.find_witness.cold_us": div(first["cold_s"], first["cold_calls"]) * 1e6,
        "witness.verify_certificate.calls": verify_calls,
        "witness.verify_certificate.us": per_call_us("witness.verify_certificate"),
        "witness.verify_certificate.reject_frac": div(first["rejects"], verify_calls),
        "witness.certificate_json_us": per_call_us(
            "witness.Certificate.to_json", "witness.Certificate.from_json"
        ),
        "coloring.enumerate_colourings.per_s": probes.get("coloring.enumerate_colourings.per_s", 0.0),
        "coloring.TypedColouring.us": per_call_us("coloring.TypedColouring"),
        "coloring.colouring_digest.calls": digests,
        "coloring.colouring_digest.us": per_call_us("coloring.colouring_digest"),
        "coloring.digests_per_cert": div(digests, first["find_hits"]),
        "polynomial.evaluate.calls": calls(first, "polynomial.evaluate"),
        "polynomial.h_value.us": probes.get("polynomial.h_value.us", 0.0),
        "trace.overhead_s": median([p["wall"] for p in passes]) - untraced_wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canvdw" / "__init__.py").is_file():
        print(f"error: no canvdw sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    gate = Gate()
    try:
        workload, setup_times = set_up(cls, args.seed, workdir)
        seconds = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
        passes = run_passes(workload, seconds, gate)
        workload.cross_check(gate)
        figures = workload_metrics(workload, passes)
        layers = None
        if args.trace:
            layers = traced_run(args, cls, workdir, gate, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures["setup_s"] = (median(setup_times), "s")
    figures["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    failed = len(gate.failures)
    figures["failed_frac"] = (failed / gate.attempted, "ratio")
    env = environment()

    for what in gate.failures[:20]:
        print(f"FAILED {what}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# pass walls (s): " + " ".join(f"{p['wall']:.4f}" for p in passes))
    for key, (value, unit) in sorted(figures.items()):
        print(f"{key:<40} {value:>16.6g} {unit}")
    spec = json.loads(SPEC.read_text())
    if args.trace:
        print("# per-layer, from traced passes")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for key, m in metrics.items():
            print(f"{key:<40} {m['value']:>16.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {**env, "peak_rss_mib": figures["peak_rss_mib"][0]},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "setup_times_s": setup_times,
        "pass_walls_s": [p["wall"] for p in passes],
        "failures": gate.failures,
    }
    if args.trace:
        detail["per_layer"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def traced_run(args, cls, workdir, gate, untraced) -> dict:
    """Fresh imports and set-up, then traced passes; returns per-layer metrics.

    Exact counts must match between every traced pass and the untraced ones.
    """
    import spans

    workload = cls(fresh_import(), args.seed, workdir)
    tracer = spans.Tracer(SPAN_CAP)
    tracer.install()
    snaps = []
    tracer.recording = True

    def on_pass(result):
        tracer.recording = False
        snaps.append(tracer.take())

    try:
        passes = run_passes(workload, args.seconds * (1 - UNTRACED_SHARE), gate, on_pass)
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    def exact(snap, p):
        return (
            p["checked"],
            snap.get("witness.find_witness", (0,))[0],
            snap.get("coloring.colouring_digest", (0,))[0],
        )

    for snap, p in zip(snaps, passes):
        gate.check(
            exact(snap, p) == exact(snaps[0], passes[0]) and p["checked"] == untraced[0]["checked"],
            f"{args.workload}: exact counts differ between passes",
        )
    untraced_wall = median([p["wall"] for p in untraced])
    return layer_metrics(snaps, passes, untraced_wall, workload.probe())


if __name__ == "__main__":
    sys.exit(main())
