"""One benchmark process: set up a workload, run its ops, print one JSON line.

Started by ``run.py`` in a fresh interpreter, so ``setup_s`` covers the
imports and the workload/zoo build.  Modes:

* ``setup``: set up and stop;
* ``measure``: untraced ops back to back for ``--seconds``, each bracketed
  by the calibration loop;
* ``trace``: pairs of ops on the same seed, untraced then traced, for
  ``--seconds``; per-layer numbers come from the traced ones.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import statistics
import sys
import time
import traceback

#: Ops whose digests make up the run's fingerprint; every run does at least
#: this many, so two runs with the same base seed compare the same ops.
FINGERPRINT_OPS = 4

CAL_ITERS = 4000
CAL_REPS = 3


def calibration_loop() -> float:
    """A fixed piece of interpreted work (heap, dict and float operations).

    Returns the median time of ``CAL_REPS`` repetitions.  Its time is one
    calibration unit: op times divided by it are comparable across hosts
    and across load changes on one host.
    """
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        heap, table, acc = [], {}, 0.0
        for i in range(CAL_ITERS):
            key = (i * 7919) & 1023
            heapq.heappush(heap, (table.get(key, 0.0), i))
            table[key] = acc
            acc += i * 0.5
            if len(heap) > 64:
                heapq.heappop(heap)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_op(wl, seed):
    """Run one op; returns (seconds, output) or raises."""
    t0 = time.perf_counter()
    out = wl.op(seed)
    return time.perf_counter() - t0, out


def _check(wl, seed, out):
    try:
        return wl.check(seed, out)
    except Exception:  # a check that crashes is a failed op, not a crash
        return ["check raised: " + traceback.format_exc(limit=3)]


def measure(wl, base_seed, seconds):
    from tracing import wrapped_targets

    records, digests, errors = [], [], []
    start = time.perf_counter()
    i = 0
    while i < FINGERPRINT_OPS or time.perf_counter() - start < seconds:
        seed = base_seed + i
        cal_before = calibration_loop()
        try:
            op_s, out = _run_op(wl, seed)
        except Exception:
            errors.append(traceback.format_exc(limit=5))
            records.append({"seed": seed, "ok": False})
            i += 1
            continue
        cal_after = calibration_loop()
        fails = _check(wl, seed, out)
        errors.extend(fails)
        records.append({
            "seed": seed, "ok": not fails, "op_s": op_s,
            "cal_s": (cal_before + cal_after) / 2.0, "items": wl.items(out),
        })
        if i < FINGERPRINT_OPS:
            digests.append(wl.digest(out))
        i += 1
    return {
        "records": records,
        "digests": digests,
        "errors": errors[:20],
        "wrapped": wrapped_targets(t for _l, t, _c in wl.targets),
    }


def trace(wl, base_seed, seconds, scratch):
    from tracing import MAX_SPANS, Tracer, wrapped_targets

    tracer = Tracer(wl.targets)
    pairs, counts, digests, errors = [], [], [], []
    start = time.perf_counter()
    i = 0
    while (i < FINGERPRINT_OPS or time.perf_counter() - start < seconds) and (
        tracer.n_spans < MAX_SPANS
    ):
        seed = base_seed + i
        try:
            plain_s, _ = _run_op(wl, seed)
            traced_s, out = tracer.traced(i, _run_op, wl, seed)
        except Exception:
            errors.append(traceback.format_exc(limit=5))
            pairs.append({"seed": seed, "ok": False})
            i += 1
            continue
        fails = _check(wl, seed, out)
        errors.extend(fails)
        pairs.append({
            "seed": seed, "ok": not fails, "plain_s": plain_s,
            "traced_s": traced_s, "items": wl.items(out),
        })
        counts.append(wl.counts(out))
        if i < FINGERPRINT_OPS:
            digests.append(wl.digest(out))
        i += 1
    ops = [i for i, p in enumerate(pairs) if p["ok"]]
    prefix = [i for i in ops if i < FINGERPRINT_OPS]
    span_path = os.path.join(scratch, f"spans-{wl.name}-{base_seed}.npz")
    tracer.write(span_path)
    return {
        "records": pairs,
        "digests": digests,
        "errors": errors[:20],
        "wrapped": wrapped_targets(t for _l, t, _c in wl.targets),
        "missing": tracer.missing,
        "counts": counts,
        "spans_all": tracer.aggregate(ops),
        "spans_prefix": tracer.aggregate(prefix),
        "work_all": tracer.work_sum(ops),
        "work_prefix": tracer.work_sum(prefix),
        "layer_of": tracer.layer_of,
        "span_file": {"path": span_path, "spans": tracer.n_spans},
    }


def modelled_vs_paper():
    """Modelled chip numbers against the paper's headline and Fig. 8 gains."""
    from repro.core import IMAConfig
    from repro.experiments import run_fig8
    from repro.experiments.data import FIG8_PAPER_GEOMEANS

    cfg = IMAConfig()
    rows = {
        "tops_per_w": (cfg.energy_efficiency_tops_per_watt, 123.8),
        "tops": (cfg.throughput_tops, 34.9),
    }
    fig8 = run_fig8()
    for base, paper in FIG8_PAPER_GEOMEANS.items():
        rows[f"fig8_ee_x_{base}"] = (fig8.geomean_ee(base), paper["ee"])
        rows[f"fig8_tput_x_{base}"] = (fig8.geomean_tput(base), paper["throughput"])
    return {
        name: {"model": m, "paper": p, "error": (m - p) / p}
        for name, (m, p) in rows.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    # Set-up is timed like an op: wall time between two calibration runs.
    cal_before = calibration_loop()
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.scratch)
    wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    result = {
        "setup": {"wall_s": setup_s, "cal_s": (cal_before + calibration_loop()) / 2.0}
    }
    try:
        if args.mode == "measure":
            result.update(measure(wl, args.seed, args.seconds))
            result["paper"] = modelled_vs_paper()
        elif args.mode == "trace":
            result.update(trace(wl, args.seed, args.seconds, args.scratch))
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    if args.mode != "setup":
        import numpy

        result["cal_s"] = statistics.median(calibration_loop() for _ in range(5))
        result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
