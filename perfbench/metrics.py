"""Turn a worker's records into the named metrics, each with its unit.

End-to-end metrics come from untraced ops; host time is expressed in
calibration units (``cal``): an op's wall time divided by the time of the
calibration loop measured right before and after it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "items_per_cal": "items/cal",
    "op_cal_p50": "cal",
    "op_cal_tail": "cal",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "trace.overhead_ratio": "x",
    "bench.self_share": "ratio",
    "api.self_share": "ratio",
    "traces.self_share": "ratio",
    "traces.ns_per_req": "ns/req",
    "models.self_share": "ratio",
    "models.rederive_calls": "count/op",
    "cluster.self_share": "ratio",
    "cluster.lookups": "count/op",
    "cluster.hit_ratio": "ratio",
    "arch.self_share": "ratio",
    "arch.run_batch_calls": "count/op",
    "arch.run_batch_ms": "ms/op",
    "arch.map_layer_per_layer": "ratio",
    "engine.self_share": "ratio",
    "engine.events": "count/op",
    "engine.ns_per_event": "ns/event",
    "engine.scans_per_round": "ratio",
    "engine.batches": "count/op",
    "engine.mean_batch": "req/batch",
    "admission.reject_ratio": "ratio",
    "tenancy.preemptions": "count/op",
    "power.throttled_share": "ratio",
    "decode.iterations": "count/op",
    "decode.kv_overflow": "ratio",
    "observe.self_share": "ratio",
    "observe.bytes_per_req": "B/req",
    "metrics.summarize_share": "ratio",
    "metrics.render_share": "ratio",
    "nn.self_share": "ratio",
    "nn.top1_agreement": "ratio",
    "core.self_share": "ratio",
    "core.vmm_calls": "count/op",
    "core.vmm_rows_per_s": "rows/s",
}

#: Layers of the traced report; each metric named ``<short>.self_share``.
LAYERS = {
    "bench.op": "bench",
    "serve.api": "api",
    "serve.traces": "traces",
    "models.workload": "models",
    "serve.cluster": "cluster",
    "arch": "arch",
    "serve.engine": "engine",
    "serve.observe": "observe",
    "serve.metrics": "metrics",
    "nn": "nn",
    "core": "core",
}

TAIL_BEYOND = 10  # samples the tail percentile must leave above it

#: Calibration-loop time of the reference host: ``setup_s`` is set-up wall
#: time scaled to a host whose loop takes this long (about the loop's time
#: on a 2-vCPU Xeon VM).
CAL_REFERENCE_S = 0.004

CLUSTER = "repro.serve.cluster:Cluster."
ARCH = "repro.arch.simulator:"
SIM = ARCH + "ArchitectureSimulator."


def tail(values: List[float]) -> Tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and its rank.

    The value is the ``TAIL_BEYOND + 1``-th largest sample; with fewer
    samples than that it is the largest.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    rank = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], rank


def end_to_end(run: dict, setups: List[dict]) -> Tuple[Dict[str, float], dict]:
    """End-to-end metric values plus the sample facts printed beside them."""
    ok = [r for r in run["records"] if r["ok"]]
    op_cal = [r["op_s"] / r["cal_s"] for r in ok]
    tail_value, tail_rank = tail(op_cal)
    values = {
        "items_per_cal": statistics.median(
            r["items"] / c for r, c in zip(ok, op_cal)
        ),
        "op_cal_p50": statistics.median(op_cal),
        "op_cal_tail": tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(
            s["wall_s"] / s["cal_s"] * CAL_REFERENCE_S for s in setups
        ),
    }
    facts = {
        "ops": len(ok),
        "setups": len(setups),
        "tail_rank_pct": tail_rank,
        "items_per_op": statistics.mean(r["items"] for r in ok),
        "items_per_s": statistics.median(r["items"] / r["op_s"] for r in ok),
        "op_s_p50": statistics.median(r["op_s"] for r in ok),
        "cal_s_p50": statistics.median(r["cal_s"] for r in ok),
        "setup_wall_s": statistics.median(s["wall_s"] for s in setups),
    }
    return values, facts


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(run: dict) -> Tuple[Dict[str, float], dict]:
    """Per-layer metric values plus the per-layer table of the traced run.

    Counts come from the first fingerprint ops (fixed seeds, so they repeat
    exactly); times and shares from every traced op.
    """
    ok = [p for p in run["records"] if p["ok"]]
    n_ops = max(1, len(ok))
    prefix = run["counts"][: len(run["digests"])]
    n_prefix = max(1, len(prefix))
    pc: Dict[str, float] = {}
    for c in prefix:
        for key, amount in c.items():
            pc[key] = pc.get(key, 0) + amount
    spans, layer_of = run["spans_all"], run["layer_of"]
    calls = {name: s["calls"] for name, s in run["spans_prefix"].items()}
    layer_ns: Dict[str, float] = {}
    layer_calls: Dict[str, int] = {}
    for name, s in spans.items():
        layer = layer_of.get(name, name)
        layer_ns[layer] = layer_ns.get(layer, 0.0) + s["self_ns"]
        layer_calls[layer] = layer_calls.get(layer, 0) + s["calls"]
    op_ns = spans.get("bench.op", {}).get("total_ns", 0.0)
    items_all = sum(p["items"] for p in ok)
    events_all = sum(c.get("engine.events", 0) for c in run["counts"])

    def share(layer):
        return _div(layer_ns.get(layer, 0.0), op_ns)

    def total(name):
        return spans.get(name, {}).get("total_ns", 0.0)

    def per_op(*names):
        return sum(calls.get(n, 0) for n in names) / n_prefix

    lookups = per_op(CLUSTER + "service", CLUSTER + "decode_service",
                     CLUSTER + "kv_overflow_service")
    arch_calls = per_op(SIM + "run_batch", SIM + "run_layer_pipelined")
    values = {f"{short}.self_share": share(layer) for layer, short in LAYERS.items()}
    values.update({
        "trace.overhead_ratio": statistics.median(
            p["traced_s"] / p["plain_s"] for p in ok
        ),
        "traces.ns_per_req": _div(layer_ns.get("serve.traces", 0.0), items_all),
        "models.rederive_calls": per_op(
            "repro.serve.cluster:at_seq_len", "repro.serve.cluster:at_decode_step"
        ),
        "cluster.lookups": lookups,
        "cluster.hit_ratio": 1.0 - _div(arch_calls, lookups) if lookups else 0.0,
        "arch.run_batch_calls": per_op(SIM + "run_batch"),
        "arch.run_batch_ms": total(SIM + "run_batch") / n_ops / 1e6,
        "arch.map_layer_per_layer": _div(
            calls.get(ARCH + "map_layer", 0),
            run["work_prefix"].get("arch.batch_layers", 0),
        ),
        "engine.events": pc.get("engine.events", 0) / n_prefix,
        "engine.ns_per_event": _div(layer_ns.get("serve.engine", 0.0), events_all),
        "engine.scans_per_round": _div(pc.get("engine.scans", 0), pc.get("engine.rounds", 0)),
        "engine.batches": pc.get("engine.batches", 0) / n_prefix,
        "engine.mean_batch": _div(pc.get("engine.served", 0), pc.get("engine.batches", 0)),
        "admission.reject_ratio": _div(pc.get("admission.rejected", 0), pc.get("items", 0)),
        "tenancy.preemptions": pc.get("tenancy.preemptions", 0) / n_prefix,
        "power.throttled_share": _div(pc.get("power.stall_ns", 0), pc.get("power.busy_ns", 0)),
        "decode.iterations": pc.get("decode.iterations", 0) / n_prefix,
        "decode.kv_overflow": _div(
            pc.get("decode.kv_overflow_bytes", 0), pc.get("decode.kv_bytes", 0)
        ),
        "observe.bytes_per_req": _div(pc.get("observe.bytes", 0), pc.get("items", 0)),
        "metrics.summarize_share": _div(
            spans.get("repro.serve:summarize", {}).get("self_ns", 0.0), op_ns
        ),
        "metrics.render_share": _div(
            spans.get("repro.serve:format_serving", {}).get("self_ns", 0.0), op_ns
        ),
        "nn.top1_agreement": pc.get("nn.agreement", 0) / n_prefix,
        "core.vmm_calls": per_op("repro.core.ima:FastIMA.vmm_batch"),
        "core.vmm_rows_per_s": _div(
            run["work_all"].get("core.vmm_rows", 0),
            total("repro.core.ima:FastIMA.vmm_batch") / 1e9,
        ),
    })
    table = [
        {
            "layer": layer,
            "self_ms_per_op": layer_ns[layer] / n_ops / 1e6,
            "share": share(layer),
            "calls_per_op": layer_calls[layer] / n_ops,
        }
        for layer in LAYERS
        if layer in layer_ns
    ]
    table.sort(key=lambda row: -row["share"])
    dominant = next((row["layer"] for row in table if row["layer"] != "bench.op"), "")
    return values, {"table": table, "dominant": dominant, "ops": len(ok)}
