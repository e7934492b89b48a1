#!/usr/bin/env python3
"""Benchmark of cubictrace: one workload, on one seed, in this process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certified-deep --seed 1 --seconds 20 --trace 0

The run repeats whole rounds of the workload until the measured time
reaches --seconds.  Before each round, cubictrace is imported afresh from
the checkout's src/ and the inputs are made again from the seed: that is
the set-up, timed on its own.  Each round's outputs are checked after it
ends.  With --trace 1 the rounds cycle through untraced, spans and
counts (see tracing.py), and the traced ones give the per-layer metrics.
Times are in reference seconds (see calib.py); raw seconds are printed
beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Per-run JSON and the spans of a
traced run are written under perfbench/out/.
"""

import os

# one thread per process, also for any numeric library cubictrace may load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("algebra", "branch", "counts", "torus", "rankd", "verify", "cli", "_kernels")


class Package:
    """cubictrace imported afresh from this checkout, with every module state new."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "cubictrace" or m.startswith("cubictrace.")]:
            del sys.modules[name]
        pkg = importlib.import_module("cubictrace")
        if Path(pkg.__file__).resolve().parent != SRC / "cubictrace":
            raise ImportError(f"cubictrace was imported from {pkg.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"cubictrace.{name}"))
        self.modules = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name.startswith("cubictrace.")
        }
        self.modules["cubictrace"] = pkg


def set_up(workload, seed):
    return Package(), workload.inputs(seed)


def run(workload, seed, seconds, trace):
    clock = calib.Clock()
    span_log = []
    rounds, problems = [], []
    attempted = failed = 0
    first_outputs = None
    reported = []

    def failure(exc):
        if len(reported) < 3:
            traceback.print_exception(exc, file=sys.stderr)
        reported.append(repr(exc))

    kinds = ("plain", "spans", "counts") if trace else ("plain",)
    measured = 0.0
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        gc.collect()
        s0 = clock.mark(resync=True)
        ct, data = clock.call(set_up, workload, seed)
        s1 = clock.mark()
        c1 = len(clock.calls)
        tracer = None
        if kind != "plain":
            tracer = tracing.Tracer(i, span_log, clock, count_algebra=kind == "counts")
            tracer.install(ct)
        outputs, nfailed = workload.run_round(ct, data, clock, failure)
        s2 = clock.mark()
        if i == 0:
            # later rounds only add allocator fragmentation, and their number
            # depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append({"kind": kind, "setup": (s0, s1), "run": (s1, s2), "calls": (c1, len(clock.calls)),
                       "tracer": tracer})
        attempted += workload.items_per_round
        failed += nfailed
        problems.extend(workload.check(data, outputs))
        if first_outputs is None:
            first_outputs = outputs
        measured += clock.raw(s1, s2)
        i += 1
        if measured >= seconds and i % len(kinds) == 0:
            break
    problems.extend(workload.finish(ct, data, first_outputs))

    scales = clock.scales()
    plain = [r["calls"] for r in rounds if r["kind"] == "plain"]
    per_call = {"raw": [clock.call_times(a, b) for a, b in plain],
                "cal": [clock.call_times(a, b, scales) for a, b in plain]}
    if len({len(times) for times in per_call["cal"]}) == 1:
        run_per_call = {k: calib.per_call_median(v) for k, v in per_call.items()}
    else:  # a failed operation cut a round short
        run_per_call = None
    for r in rounds:
        tracer = r.pop("tracer")
        r["layers"] = tracer.metrics(scales) if tracer is not None else None
        for key in ("setup", "run"):
            start, stop = r[f"{key}_segments"] = r.pop(key)
            r[f"{key}_raw_s"] = clock.raw(start, stop)
            r[f"{key}_s"] = clock.calibrated(start, stop, scales)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "rounds": rounds, "run_per_call": run_per_call,
        "ref_samples": clock.ref_samples, "segments": clock.segments,
        "attempted": attempted, "failed": failed, "failures": reported[:10],
        "problems": problems, "span_log": span_log,
        "peak_rss_mb": peak_rss_mb,
    }


def rounds_of(result, kind):
    return [r for r in result["rounds"] if r["kind"] == kind]


def end_to_end(result, items_per_round):
    """Medians over the rounds; items_per_s is a round's items over run_s."""
    plain = rounds_of(result, "plain")
    if result["run_per_call"] is not None:
        run_cal, run_raw = result["run_per_call"]["cal"], result["run_per_call"]["raw"]
    else:
        run_cal = statistics.median(r["run_s"] for r in plain)
        run_raw = statistics.median(r["run_raw_s"] for r in plain)
    setup_cal = statistics.median(r["setup_s"] for r in result["rounds"])
    setup_raw = statistics.median(r["setup_raw_s"] for r in result["rounds"])
    return {
        "setup_s": ("s", setup_cal, setup_raw),
        "run_s": ("s", run_cal, run_raw),
        "items_per_s": ("1/s", items_per_round / run_cal, items_per_round / run_raw),
        "peak_rss_mb": ("MB", result["peak_rss_mb"], None),
    }


def per_layer(result):
    """Medians over the traced rounds; counts repeat exactly from round to round."""
    spans, counts, plain = (rounds_of(result, k) for k in ("spans", "counts", "plain"))
    out = {}
    for name, unit in tracing.PER_LAYER:
        source = counts if name.startswith("algebra.") else spans
        out[name] = (unit, statistics.median(r["layers"][name] for r in source), None)
    runs = {k: statistics.median(r["run_s"] for r in rs) for k, rs in
            (("plain", plain), ("spans", spans), ("counts", counts))}
    out["calibration.ref_s"] = ("s", statistics.median(result["ref_samples"]), None)
    out["tracing.untraced_run_s"] = ("s", runs["plain"], statistics.median(r["run_raw_s"] for r in plain))
    out["tracing.traced_run_s"] = ("s", runs["spans"], statistics.median(r["run_raw_s"] for r in spans))
    out["tracing.overhead_s"] = ("s", runs["spans"] - runs["plain"], None)
    out["tracing.counting_overhead_s"] = ("s", runs["counts"] - runs["plain"], None)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cubictrace" / "__init__.py").is_file():
        print(f"no cubictrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, args.trace)
    metrics = per_layer(result) if args.trace else end_to_end(result, workload.items_per_round)

    plain = len(rounds_of(result, "plain"))
    print(f"workload {workload.name}  seed {args.seed}  rounds {len(result['rounds'])} "
          f"({plain} untraced)  items/round {workload.items_per_round}")
    print(f"reference loop: median {statistics.median(result['ref_samples']) * 1e3:.3f} ms, "
          f"nominal {calib.NOMINAL_REF_S * 1e3:.3f} ms, {len(result['ref_samples'])} samples")
    for name, (unit, value, raw) in metrics.items():
        beside = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:44s} {value:14.6g} {unit}{beside}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("span_log")
    if spans:
        with open(OUT / f"{stem}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "round", "id", "parent", "start", "end"], "spans": spans}, fh)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(dict(result, metrics=metrics), fh, indent=1, default=str)

    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
