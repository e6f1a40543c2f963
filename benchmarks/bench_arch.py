"""Architecture cost fill: the zoo's cold cost rows on all four backends.

A serving run asks the architecture model for one cost row per (chip
type, model, batch size, shape) it meets, and every run fills those rows
cold on a fresh :class:`~repro.serve.cluster.Cluster`.  For every
registered chip type this bench fills, for each zoo model alone on one
chip:

* prefill rows: batch sizes 1..8 at the native shape
  (:meth:`Cluster.service`);
* decode rows (transformers only): batch sizes 1..8 at every KV-page
  multiple of 16 tokens up to 512 (:meth:`Cluster.decode_service`).

It times two ways of filling the same rows in the same process:

* ``columns`` — the cluster's own path, which rolls up memoized NumPy
  layer columns (:meth:`ArchitectureSimulator.batch_cost`) and derives
  each model's decode step once;
* ``objects`` — a fresh simulator's ``run_batch`` on each workload
  re-derived by :func:`~repro.models.workload.at_decode_step`, which
  builds a ``WorkloadSpec`` per context and a ``RunResult`` per row.

Both must give equal floats for every row (asserted).  Each fill is
timed best of ``REPEATS`` on fresh objects.  One record per run is
appended to ``benchmarks/BENCH_arch.json`` with a host record (cpu,
nproc, python, numpy), so rows from different hosts can be told apart.

Set ``REPRO_BENCH_SMOKE=1`` to run a shortened sweep (the CI tier-2
smoke job): fewer batch sizes and contexts, one repeat, and no speedup
assertion, since a tiny fill measures fixed overhead.
"""

import json
import os
import pathlib
import time

from conftest import emit, host_record

from repro.arch.simulator import ArchitectureSimulator
from repro.experiments.report import format_table
from repro.models.workload import ModelKind, at_decode_step
from repro.models.zoo import BENCHMARK_MODELS, get_workload
from repro.serve.cluster import Cluster
from repro.serve.fleet import CHIP_TYPES

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

PAGE_TOKENS = 16
MAX_CONTEXT = 128 if SMOKE else 512
BATCH_SIZES = tuple(range(1, 5 if SMOKE else 9))
CONTEXTS = tuple(range(PAGE_TOKENS, MAX_CONTEXT + 1, PAGE_TOKENS))
REPEATS = 1 if SMOKE else 3

_RECORD_PATH = pathlib.Path(__file__).parent / "BENCH_arch.json"


def _decodes(workload) -> bool:
    return workload.kind == ModelKind.TRANSFORMER


def _column_fill(chip, workloads):
    """Every cost row through fresh single-chip clusters."""
    rows = {}
    for name, workload in workloads.items():
        cluster = Cluster([workload], fleet=f"{chip}:1")
        for b in BATCH_SIZES:
            cost = cluster.service(0, name, b)
            rows[name, 0, b] = (cost.latency_ns, cost.energy_pj)
        if _decodes(workload):
            for ctx in CONTEXTS:
                for b in BATCH_SIZES:
                    cost = cluster.decode_service(0, name, b, ctx)
                    rows[name, ctx, b] = (cost.latency_ns, cost.energy_pj)
    return rows


def _object_fill(chip, workloads):
    """The same rows as ``run_batch`` results on re-derived workloads."""
    rows = {}
    for name, workload in workloads.items():
        spec = CHIP_TYPES[chip]()
        fits = workload.total_weight_bytes <= spec.weight_capacity_bytes
        sim = ArchitectureSimulator(spec, weights_resident=fits)
        for b in BATCH_SIZES:
            batch = sim.run_batch(workload, b)
            rows[name, 0, b] = (batch.latency_ns, batch.energy_pj)
        if _decodes(workload):
            for ctx in CONTEXTS:
                step = at_decode_step(workload, ctx)
                for b in BATCH_SIZES:
                    batch = sim.run_batch(step, b)
                    rows[name, ctx, b] = (batch.latency_ns, batch.energy_pj)
    return rows


def _best_of(fill, chip, workloads):
    """(rows, best wall seconds) over ``REPEATS`` cold fills."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        rows = fill(chip, workloads)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return rows, best


def _sweep():
    workloads = {name: get_workload(name) for name in BENCHMARK_MODELS}
    results = []
    for chip in sorted(CHIP_TYPES):
        columns, column_s = _best_of(_column_fill, chip, workloads)
        objects, object_s = _best_of(_object_fill, chip, workloads)
        results.append((chip, columns, column_s, objects, object_s))
    return results


def test_cold_cost_fill(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    per_backend = {}
    body = []
    for chip, columns, column_s, objects, object_s in results:
        # The column path is a faster way to the same floats, not a
        # different model: every row must match exactly.
        assert columns == objects, chip
        speedup = object_s / column_s
        per_backend[chip] = {
            "rows": len(columns),
            "columns_ms": round(1e3 * column_s, 3),
            "objects_ms": round(1e3 * object_s, 3),
            "columns_us_per_row": round(1e6 * column_s / len(columns), 3),
            "speedup": round(speedup, 2),
        }
        body.append((
            chip, len(columns), f"{1e3 * column_s:.1f}", f"{1e3 * object_s:.1f}",
            f"{1e6 * column_s / len(columns):.1f}", f"{speedup:.1f}x",
        ))
        benchmark.extra_info[f"{chip}_speedup"] = speedup
        if not SMOKE:
            assert speedup > 1.0, chip
    scenario = (
        f"zoo of {len(BENCHMARK_MODELS)} models, one per chip; prefill "
        f"B={BATCH_SIZES[0]}..{BATCH_SIZES[-1]}, decode contexts "
        f"{PAGE_TOKENS}..{MAX_CONTEXT} step {PAGE_TOKENS}; best of {REPEATS}"
    )
    emit(
        f"Cold architecture cost fill — {scenario}",
        format_table(
            ("chip", "rows", "columns ms", "objects ms", "us/row", "speedup"),
            body,
        ),
    )
    record = {
        "bench": "arch",
        "smoke": SMOKE,
        "host": host_record(),
        "scenario": scenario,
        "per_backend": per_backend,
    }
    history = []
    if _RECORD_PATH.exists():
        history = json.loads(_RECORD_PATH.read_text())
    history.append(record)
    _RECORD_PATH.write_text(json.dumps(history, indent=2) + "\n")
