"""The benchmark's workloads: one op each, its correctness check and counts.

Every op is a full user pipeline run back to back by one client (a closed
loop of one).  Op ``i`` of a run uses seed ``base + i``.  Inside a serving op
the simulated traffic is an open loop at the fixed rates below.

Each workload provides

* ``setup(seed)``: imports plus workload/zoo build, before the first op;
* ``op(seed)``: the timed user pipeline, returning its output;
* ``items(out)``: items the op completed (requests offered, or test inputs
  classified);
* ``check(seed, out)``: a list of failed correctness conditions;
* ``digest(out)``: hash of every simulated statistic the op produced;
* ``counts(out)``: simulated component counts for the traced report;
* ``targets``: the public calls the traced run wraps, per layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Dict, List

# -- span targets ----------------------------------------------------------------

#: Public calls of the serving stack, by layer, patched where the caller
#: looks each one up (``_simulate`` reads the ``repro.serve`` globals).
SERVE_TARGETS = [
    ("serve.api", "repro.serve:simulate_serving", None),
    ("serve.traces", "repro.serve:make_trace", None),
    ("serve.traces", "repro.serve:merge_traces", None),
    ("serve.traces", "repro.serve:tenant_traces", None),
    ("serve.traces", "repro.serve:sample_seqlens", None),
    ("serve.traces", "repro.serve:with_seqlens", None),
    ("serve.traces", "repro.serve:sample_decode_lens", None),
    ("serve.traces", "repro.serve:with_decode_lens", None),
    ("models.workload", "repro.serve:get_workload", None),
    ("models.workload", "repro.serve.cluster:at_seq_len", None),
    ("models.workload", "repro.serve.cluster:at_decode_step", None),
    ("serve.cluster", "repro.serve.cluster:Cluster.__init__", None),
    ("serve.cluster", "repro.serve.cluster:Cluster.service", None),
    ("serve.cluster", "repro.serve.cluster:Cluster.decode_service", None),
    ("serve.cluster", "repro.serve.cluster:Cluster.kv_overflow_service", None),
    ("arch", "repro.arch.simulator:ArchitectureSimulator.run", None),
    (
        "arch",
        "repro.arch.simulator:ArchitectureSimulator.run_batch",
        lambda args: ("arch.batch_layers", len(args[1].layers)),
    ),
    ("arch", "repro.arch.simulator:ArchitectureSimulator.run_layer_pipelined", None),
    ("arch", "repro.arch.simulator:map_layer", None),
    ("serve.engine", "repro.serve.engine:ServingEngine.run", None),
    ("serve.metrics", "repro.serve:summarize", None),
    ("serve.metrics", "repro.serve:format_serving", None),
] + [
    ("serve.observe", f"repro.serve.observe:JsonlTraceSink.{hook}", None)
    for hook in (
        "begin", "arrival", "enqueue", "reject", "dispatch", "complete",
        "preempt", "decode_iter", "scale", "throttle", "spill", "finish",
    )
]

#: Public calls of the inference path: ``repro.nn`` models and quantizing
#: backend, ``repro.core`` engine and IMA tiles.
NN_TARGETS = [
    ("nn", "repro.nn.graph:Sequential.infer", None),
    ("nn", "repro.nn.zoo:TransformerClassifier.infer", None),
    ("nn", "repro.nn.backend:QuantizedBackend.matmul", None),
    ("core", "repro.core.engine:YocoMatmulEngine.matmul_signed", None),
    ("core", "repro.core.ima:FastIMA.program_weights", None),
    (
        "core",
        "repro.core.ima:FastIMA.vmm_batch",
        lambda args: ("core.vmm_rows", len(args[1])),
    ),
]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# -- serving ---------------------------------------------------------------------


@dataclasses.dataclass
class ServeOut:
    report: object
    result: object
    text: str
    trace_path: str = ""


class _Serving:
    """Shared pipeline of the serving workloads: config -> simulate -> render."""

    targets = SERVE_TARGETS
    models: tuple = ()

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        import repro.serve as serve
        from repro.models.zoo import get_workload

        self.serve = serve
        for name in self.models:
            get_workload(name)
        self.config(seed).validate()

    def config(self, seed: int):
        raise NotImplementedError

    def op(self, seed: int) -> ServeOut:
        cfg = self.config(seed)
        report, result = self.serve.simulate_serving(config=cfg)
        return ServeOut(report, result, self.serve.format_serving(report))

    def items(self, out: ServeOut) -> int:
        return out.result.n_offered

    def check(self, seed: int, out: ServeOut) -> List[str]:
        fails = []
        res, rep = out.result, out.report
        if not rep.per_model or not out.text:
            fails.append("empty report")
        served_by_model = sum(m.n_requests for m in rep.per_model)
        if served_by_model != res.n_requests:
            fails.append("per-model served does not add up to served")
        if rep.per_tenant:
            for t in rep.per_tenant:
                if t.n_requests + t.n_dropped != t.n_offered:
                    fails.append(f"tenant {t.tenant}: served + rejected != offered")
            if sum(t.n_offered for t in rep.per_tenant) != res.n_offered:
                fails.append("tenant offered does not add up to offered")
        if res.stream is None:
            ids = {(s.request.tenant, s.request.model, s.request.request_id)
                   for s in res.served}
            ids |= {(r.request.tenant, r.request.model, r.request.request_id)
                    for r in res.rejected}
            if len(ids) != res.n_offered:
                fails.append("served + rejected requests are not distinct")
            for s in res.served:
                arr = s.request.arrival_ns
                first = s.first_token_ns if s.decode_tokens else s.dispatch_ns
                if not (0.0 <= arr <= s.dispatch_ns <= first <= s.finish_ns
                        <= res.makespan_ns):
                    fails.append("served timestamps out of order")
                    break
            for r in res.rejected:
                if r.reject_ns < r.request.arrival_ns:
                    fails.append("rejected before arrival")
                    break
        for m in rep.per_model:
            if not (0.0 <= m.p50_ms <= m.p95_ms <= m.p99_ms):
                fails.append(f"{m.model}: latency percentiles out of order")
        if res.makespan_ns <= 0.0:
            fails.append("non-positive makespan")
        return fails

    def digest(self, out: ServeOut) -> str:
        res = out.result
        return _sha(
            out.text, res.n_offered, res.n_requests, len(res.rejected),
            res.n_rejections, res.n_batches, res.makespan_ns, res.chip_busy_ns,
            res.total_energy_pj, res.n_decode_iters, res.n_decode_tokens,
            res.kv_bytes, res.kv_overflow_bytes, res.n_preemptions,
        )

    def counts(self, out: ServeOut) -> Dict[str, float]:
        res = out.result
        stats = res.stats
        busy = sum(res.chip_busy_ns)
        stall = res.power.total_stall_ns if res.power is not None else 0.0
        return {
            "items": res.n_offered,
            "engine.events": stats.n_events,
            "engine.rounds": stats.n_dispatch_rounds,
            "engine.scans": stats.n_slot_scans,
            "engine.batches": res.n_batches,
            "engine.served": res.n_requests,
            "admission.rejected": len(res.rejected),
            "tenancy.preemptions": res.n_preemptions,
            "power.stall_ns": stall,
            "power.busy_ns": busy,
            "decode.iterations": res.n_decode_iters,
            "decode.kv_bytes": res.kv_bytes,
            "decode.kv_overflow_bytes": res.kv_overflow_bytes,
            "observe.bytes": (
                os.path.getsize(out.trace_path) if out.trace_path else 0
            ),
        }


class ServeTurbo(_Serving):
    """Single-slot turbo path: one model, plain batching, streaming metrics."""

    name = "serve_turbo"
    models = ("resnet18",)
    duration_s = 0.1

    def config(self, seed: int):
        s = self.serve
        return s.ServingConfig(
            workload=s.WorkloadConfig(
                models=self.models, rps=100_000.0, duration_s=self.duration_s,
                trace_kind="diurnal", seed=seed,
            ),
            fleet=s.FleetConfig(fleet="yoco:8"),
            policy=s.PolicyConfig(max_batch_size=8, window_ms=0.2),
            observe=s.ObserveConfig(stream_metrics=s.StreamingMetrics()),
        )


class ServeMix(_Serving):
    """General event loop with every component hook live, retained mode."""

    name = "serve_mix"
    models = ("resnet18", "mobilebert")
    duration_s = 0.05
    tenants = (
        "chat:interactive:w=4:poisson@4000:seqlen=lognormal,"
        "bulk:batch:poisson@40000:rate=20000:seqlen=lognormal"
    )

    def setup(self, seed: int) -> None:
        self.trace_path = os.path.join(self.scratch, f"serve_mix-{os.getpid()}.jsonl")
        super().setup(seed)

    def config(self, seed: int):
        s = self.serve
        return s.ServingConfig(
            workload=s.WorkloadConfig(
                models=self.models, duration_s=self.duration_s, seed=seed,
                tenants=self.tenants,
            ),
            fleet=s.FleetConfig(fleet="yoco:4,isaac:4", power_cap_w=0.5),
            policy=s.PolicyConfig(admission="queue-cap:64", scheduler="weighted-fair"),
            observe=s.ObserveConfig(trace_file=self.trace_path),
        )

    def op(self, seed: int) -> ServeOut:
        out = super().op(seed)
        out.trace_path = self.trace_path
        return out

    def check(self, seed: int, out: ServeOut) -> List[str]:
        from repro.serve.metrics import percentile
        from repro.serve.observe import summarize_trace

        fails = super().check(seed, out)
        summary = summarize_trace(out.trace_path)
        live: Dict[tuple, List[float]] = {}
        for s in out.result.served:
            live.setdefault((s.request.tenant, s.request.model), []).append(
                s.latency_ns * 1e-6
            )
        rejected: Dict[tuple, int] = {}
        for r in out.result.rejected:
            key = (r.request.tenant, r.request.model)
            rejected[key] = rejected.get(key, 0) + 1
        lanes = {(lane.tenant, lane.model): lane for lane in summary.lanes}
        if set(lanes) != set(live):
            fails.append("trace lanes differ from served lanes")
        for key, lats in live.items():
            lane = lanes.get(key)
            if lane is None:
                continue
            rebuilt = (lane.n, lane.p50_ms, lane.p95_ms, lane.p99_ms, lane.max_ms)
            expect = (
                len(lats), percentile(lats, 50), percentile(lats, 95),
                percentile(lats, 99), max(lats),
            )
            if rebuilt != expect:
                fails.append(f"trace lane {key} percentiles differ from live")
            if lane.n_rejected != rejected.get(key, 0):
                fails.append(f"trace lane {key} rejections differ from live")
        if summary.n_rejected != len(out.result.rejected):
            fails.append("trace rejections differ from live")
        return fails

    def digest(self, out: ServeOut) -> str:
        with open(out.trace_path, "rb") as f:
            return _sha(super().digest(out), f.read())

    def close(self) -> None:
        if os.path.exists(self.trace_path):
            os.remove(self.trace_path)


class ServeDecode(_Serving):
    """Prefill/decode disaggregation: the engine runs per decode iteration."""

    name = "serve_decode"
    models = ("mobilebert",)
    duration_s = 0.1

    def config(self, seed: int):
        s = self.serve
        return s.ServingConfig(
            workload=s.WorkloadConfig(
                models=self.models, rps=2000.0, duration_s=self.duration_s,
                seed=seed, seqlen_dist="lognormal",
            ),
            fleet=s.FleetConfig(fleet="yoco:4,isaac:4", placement="prefill-decode"),
            decode=s.DecodeConfig(dist="lognormal", mean_tokens=32),
        )

    def check(self, seed: int, out: ServeOut) -> List[str]:
        from repro.serve.decode import sample_decode_lens

        fails = super().check(seed, out)
        res = out.result
        cfg = self.config(seed).decode
        served = sorted(res.served, key=lambda s: s.request.request_id)
        sampled = sample_decode_lens(cfg, len(served), seed=seed)
        if [s.request.request_id for s in served] != list(range(len(served))):
            fails.append("decode request ids are not the offered trace")
        if tuple(s.decode_tokens for s in served) != sampled:
            fails.append("generated tokens differ from sampled decode lengths")
        if sum(sampled) != res.n_decode_tokens:
            fails.append("token total differs from sampled decode lengths")
        return fails


# -- inference -------------------------------------------------------------------

#: Lowest top-1 agreement with the float backend an op may show (per op,
#: over its 16 test inputs).  Over 400 ops (base seeds 0, 50, ..., 950, 20
#: ops each) the agreement was 1.0 in 329 ops, 0.9375 in 51, 0.875 in 13,
#: 0.8125 in 6 and 0.75 in 1; each extra disagreement is about 4x rarer, so
#: a floor of one half is not reached by chance but is by a broken backend
#: (random logits agree on about a quarter of 4-class inputs).
AGREEMENT_FLOOR = 0.5


@dataclasses.dataclass
class InferOut:
    logits: list
    vmm_count: int
    energy_pj: float


class AnalogInfer:
    """Fig. 6(f) inference path on behavioral YOCO IMAs vs a float reference.

    Seeded, untrained ``build_cnn_deep`` and ``build_transformer_small``
    classify a fixed synthetic test set built from the base seed; op ``i``
    runs a fresh ``YocoBackend(mode="fast", seed=base + i)``.
    """

    name = "analog_infer"
    targets = NN_TARGETS
    n_test = 8  # test inputs per model

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        import numpy as np
        from repro.nn.backend import FloatBackend, InferenceContext, YocoBackend
        from repro.nn.datasets import synthetic_images, synthetic_sequences
        from repro.nn.zoo import build_cnn_deep, build_transformer_small

        self.np, self.ctx, self.yoco = np, InferenceContext, YocoBackend
        images = synthetic_images(n_train=0, n_test=self.n_test, seed=seed)
        seqs = synthetic_sequences(n_train=0, n_test=self.n_test, seed=seed)
        self.cases = [
            (build_cnn_deep(n_classes=images.n_classes, seed=seed), images.x_test),
            (build_transformer_small(n_classes=seqs.n_classes, seed=seed), seqs.x_test),
        ]
        float_backend = FloatBackend()
        self.reference = [
            model.infer(x, InferenceContext(backend=float_backend)).argmax(axis=-1)
            for model, x in self.cases
        ]

    def op(self, seed: int) -> InferOut:
        backend = self.yoco(mode="fast", seed=seed)
        logits = [
            model.infer(x, self.ctx(backend=backend)) for model, x in self.cases
        ]
        return InferOut(logits, backend.total_vmm_count, backend.total_energy_pj)

    def items(self, out: InferOut) -> int:
        return sum(len(x) for _m, x in self.cases)

    def agreement(self, out: InferOut) -> float:
        same = sum(
            int((lg.argmax(axis=-1) == ref).sum())
            for lg, ref in zip(out.logits, self.reference)
        )
        return same / self.items(out)

    def check(self, seed: int, out: InferOut) -> List[str]:
        fails = []
        np = self.np
        if any(not np.all(np.isfinite(lg)) for lg in out.logits):
            fails.append("non-finite logits")
        again = self.op(seed)
        if any(not np.array_equal(a, b) for a, b in zip(out.logits, again.logits)):
            fails.append("YOCO logits are not deterministic per seed")
        if self.agreement(out) < AGREEMENT_FLOOR:
            fails.append(
                f"top-1 agreement {self.agreement(out):.3f} below floor "
                f"{AGREEMENT_FLOOR}"
            )
        return fails

    def digest(self, out: InferOut) -> str:
        return _sha(*(lg.tobytes() for lg in out.logits), out.vmm_count, out.energy_pj)

    def counts(self, out: InferOut) -> Dict[str, float]:
        return {
            "items": self.items(out),
            "nn.agreement": self.agreement(out),
        }


WORKLOADS = {
    cls.name: cls for cls in (ServeTurbo, ServeMix, ServeDecode, AnalogInfer)
}
