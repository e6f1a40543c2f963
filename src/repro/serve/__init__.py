"""Request-level serving simulator: traffic -> cluster -> tail latency.

Turns the per-inference cost models of :mod:`repro.arch` into
cluster-scale serving numbers: offered traffic (synthetic arrival traces)
flows through per-model queues and a dynamic batcher onto N accelerator
chips, and comes out as p50/p95/p99 latency, SLO attainment, goodput,
chip utilization and energy per request.

    from repro.serve import simulate_serving
    report, _ = simulate_serving(["resnet18"], n_chips=4, rps=2000, seed=0)
    print(format_serving(report))

LLM traffic is sequence-length aware: pass ``seqlen_dist`` to draw a
per-request context length for every transformer request (CNNs are
untouched), and the batcher buckets same-length requests together so a
batch pads only to its bucket boundary — the report then adds tokens/s,
energy per token, and the padding overhead:

    report, _ = simulate_serving(
        ["gpt_large"], n_chips=2, rps=40, seqlen_dist="lognormal", seed=0
    )

Fleets can also run under a power/thermal envelope
(:mod:`repro.serve.power`): a per-chip power cap and/or a thermal limit
throttle dispatched batches DVFS-style, coupling watts back into latency:

    report, _ = simulate_serving(
        ["resnet18"], n_chips=4, rps=20000, power_cap_w=0.5, seed=0
    )

Traffic can be **closed-loop** instead of trace-driven
(:mod:`repro.serve.clients`): N concurrent sessions each block on their
in-flight request and think between requests, optionally behind an
admission-control policy (:mod:`repro.serve.admission`) that sheds work
the cluster cannot absorb:

    report, _ = simulate_serving(
        ["resnet18"], n_chips=4, clients=64, think_time_ms=2.0,
        admission="queue-cap:32", seed=0,
    )

Traffic can also be **multi-tenant** (:mod:`repro.serve.tenancy`): named
tenants with their own traffic mixes, SLO classes and weights share the
fleet under a pluggable dispatch scheduler (``fifo`` /
``strict-priority`` / ``weighted-fair``), with optional deadline-driven
preemption of lower-priority batches:

    report, _ = simulate_serving(
        ["resnet18"], n_chips=4,
        tenants="chat:interactive:w=4:poisson@200,bulk:batch:poisson@4000",
        scheduler="weighted-fair", seed=0,
    )

The same entry point backs ``python -m repro serve`` and the
``benchmarks/bench_serving.py`` suite.
"""

from __future__ import annotations

import inspect
from typing import Any, Optional, Sequence, Tuple

from repro.models.zoo import get_workload
from repro.serve.admission import (
    ADMISSION_POLICIES,
    AcceptAll,
    AdmissionPolicy,
    QueueDepthCap,
    SloAwareShedding,
    TenantTokenBucket,
    TokenBucket,
    parse_admission,
)
from repro.serve.batching import (
    Batch,
    BatchingPolicy,
    ModelQueue,
    bucket_for,
    default_buckets,
)
from repro.serve.clients import (
    THINK_DISTS,
    ClientPopulation,
    ClosedLoopDriver,
    RetryPolicy,
    estimated_saturation_clients,
)
from repro.serve.config import (
    COMPOSITION_RULES,
    FLAT_KWARGS,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    _resolved_tenancy,
    validate_engine,
)
from repro.serve.decode import (
    DECODE_DISTS,
    DecodeConfig,
    page_round,
    sample_decode_lens,
)
from repro.serve.cluster import (
    Cluster,
    ChipPlan,
    ChipService,
    ClusterPlan,
    MODES,
    PLACEMENTS,
    fleet_cost_table,
    plan_cluster,
    plan_fleet,
)
from repro.serve.elastic import (
    ElasticConfig,
    ElasticController,
    ElasticTrace,
    ScalingAction,
    parse_autoscale,
)
from repro.serve.engine import (
    ROUTING_POLICIES,
    EngineProfile,
    EngineStats,
    RejectedRequest,
    ServedRequest,
    ServingEngine,
    ServingResult,
)
from repro.serve.fleet import (
    CHIP_TYPES,
    FleetGroup,
    FleetSpec,
    backend_for,
    chip_spec,
    fleet_group,
    homogeneous_fleet,
    parse_fleet,
)
from repro.serve.observe import (
    ChromeTraceSink,
    JsonlTraceSink,
    MetricsRecorder,
    MultiObserver,
    Observer,
    PhaseStats,
    TraceSummary,
    compose_observers,
    format_engine_profile,
    format_trace_summary,
    lifecycle_tracer,
    summarize_trace,
)
from repro.serve.metrics import (
    ChipTypeStats,
    ModelServingStats,
    ServingReport,
    TenantStats,
    format_serving,
    percentile,
    summarize,
)
from repro.serve.power import (
    GroupPowerTrace,
    PowerConfig,
    PowerGovernor,
    PowerModel,
    PowerTrace,
    ThermalNode,
    ThrottlePolicy,
)
from repro.serve.tenancy import (
    SCHEDULERS,
    SLO_CLASSES,
    FifoScheduler,
    PreemptionRecord,
    Scheduler,
    SloClass,
    StrictPriorityScheduler,
    Tenant,
    TenancyConfig,
    WeightedFairScheduler,
    deadline_ns,
    make_scheduler,
    parse_tenants,
    tenant_traces,
)
from repro.serve.regions import (
    RegionResult,
    RegionSpec,
    RegionsReport,
    follow_the_sun,
    format_regions,
    simulate_regions,
)
from repro.serve.streaming import StreamingMetrics
from repro.serve.traces import (
    Request,
    SEQLEN_DISTS,
    TRACE_KINDS,
    bursty_trace,
    diurnal_trace,
    fixed_seqlens,
    fixed_trace,
    lognormal_seqlens,
    longtail_seqlens,
    make_trace,
    merge_traces,
    poisson_trace,
    sample_seqlens,
    uniform_seqlens,
    uniform_trace,
    with_decode_lens,
    with_seqlens,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AcceptAll",
    "AdmissionPolicy",
    "Batch",
    "BatchingPolicy",
    "CHIP_TYPES",
    "COMPOSITION_RULES",
    "FLAT_KWARGS",
    "ChipPlan",
    "ChipService",
    "ChipTypeStats",
    "ChromeTraceSink",
    "ClientPopulation",
    "ClosedLoopDriver",
    "Cluster",
    "ClusterPlan",
    "DECODE_DISTS",
    "DecodeConfig",
    "ElasticConfig",
    "ElasticController",
    "ElasticTrace",
    "EngineProfile",
    "EngineStats",
    "FleetConfig",
    "FleetGroup",
    "FleetSpec",
    "GroupPowerTrace",
    "JsonlTraceSink",
    "MODES",
    "MetricsRecorder",
    "ModelQueue",
    "ModelServingStats",
    "MultiObserver",
    "Observer",
    "ObserveConfig",
    "PLACEMENTS",
    "PhaseStats",
    "FifoScheduler",
    "PolicyConfig",
    "PowerConfig",
    "PowerGovernor",
    "PowerModel",
    "PowerTrace",
    "PreemptionRecord",
    "QueueDepthCap",
    "ROUTING_POLICIES",
    "RegionResult",
    "RegionSpec",
    "RegionsReport",
    "RejectedRequest",
    "Request",
    "RetryPolicy",
    "SCHEDULERS",
    "SEQLEN_DISTS",
    "SLO_CLASSES",
    "ScalingAction",
    "Scheduler",
    "ServedRequest",
    "ServingConfig",
    "ServingEngine",
    "ServingReport",
    "ServingResult",
    "SloAwareShedding",
    "SloClass",
    "StreamingMetrics",
    "StrictPriorityScheduler",
    "THINK_DISTS",
    "TRACE_KINDS",
    "Tenant",
    "TraceSummary",
    "TenancyConfig",
    "TenantStats",
    "TenantTokenBucket",
    "ThermalNode",
    "ThrottlePolicy",
    "TokenBucket",
    "WeightedFairScheduler",
    "WorkloadConfig",
    "backend_for",
    "bucket_for",
    "bursty_trace",
    "chip_spec",
    "compose_observers",
    "deadline_ns",
    "default_buckets",
    "diurnal_trace",
    "estimated_saturation_clients",
    "fixed_seqlens",
    "fixed_trace",
    "fleet_cost_table",
    "fleet_group",
    "follow_the_sun",
    "format_engine_profile",
    "format_regions",
    "format_serving",
    "format_trace_summary",
    "homogeneous_fleet",
    "lifecycle_tracer",
    "lognormal_seqlens",
    "longtail_seqlens",
    "make_scheduler",
    "make_trace",
    "merge_traces",
    "page_round",
    "parse_admission",
    "parse_autoscale",
    "parse_fleet",
    "parse_tenants",
    "percentile",
    "plan_cluster",
    "plan_fleet",
    "poisson_trace",
    "sample_decode_lens",
    "sample_seqlens",
    "simulate_regions",
    "simulate_serving",
    "summarize",
    "summarize_trace",
    "tenant_traces",
    "uniform_seqlens",
    "uniform_trace",
    "validate_engine",
    "with_decode_lens",
    "with_seqlens",
]

#: Seed offset separating the seqlen streams from the arrival streams, so
#: attaching sequence lengths never perturbs any model's arrival times.
_SEQLEN_SEED_OFFSET = 100_003


def simulate_serving(
    models: Sequence[str] = (),
    *,
    config: Optional[ServingConfig] = None,
    **flat: Any,
) -> Tuple[ServingReport, ServingResult]:
    """End-to-end serving run: build trace + cluster, simulate, summarize.

    Offered load ``rps`` is split evenly across ``models``; each model's
    sub-trace draws from its own seeded stream so adding a model never
    perturbs another's arrivals.

    ``fleet`` serves the trace on a (possibly heterogeneous) fleet of
    chip groups instead of ``n_chips`` identical chips — pass a
    :class:`FleetSpec` or the CLI string form (``"yoco:8,isaac:4"``).
    A homogeneous fleet (``"yoco:4"``) is bit-identical to the
    equivalent ``n_chips=4`` run.  A fleet is incompatible with ``spec``
    and ``mode`` (groups carry their own specs and modes) and with a
    contradicting ``n_chips`` — those raise instead of being silently
    ignored.  ``routing`` picks which free hosting chip each batch
    dispatches to (:data:`ROUTING_POLICIES`) — only meaningful once
    chips differ.

    ``seqlen_dist`` (one of :data:`SEQLEN_DISTS`) attaches a per-request
    sequence length to every transformer request, drawn around
    ``seqlen_mean`` (default: the model's native length) from a stream
    disjoint from the arrival seeds.  ``seqlen_buckets`` sets the
    batcher's padding boundaries explicitly, and its largest boundary acts
    as the serving max context — longer samples are clamped to it, the way
    a real endpoint truncates over-limit prompts.  By default power-of-two
    buckets covering the sampled lengths are derived automatically
    whenever a distribution is active.  CNN workloads carry no sequence
    length and are unaffected by all three knobs.

    ``power`` runs the simulation under a full
    :class:`repro.serve.power.PowerConfig` envelope; the scalar knobs
    ``power_cap_w`` (watts per chip), ``thermal_tau_s`` and ``t_max_c``
    build one with defaults for everything else (and are incompatible
    with an explicit ``power``).  With no cap and no thermal limit the
    governor only records the power trace — the simulation itself is
    float-for-float identical to the power-blind path.

    ``clients`` switches the run from an open-loop trace to a
    **closed-loop** population of that many concurrent sessions
    (:class:`repro.serve.clients.ClientPopulation`): each session issues
    one request, blocks until it completes, thinks for ``think_time_ms``
    (drawn from ``think_dist``) and issues the next, until the
    ``duration_s`` horizon.  ``rps`` and ``trace_kind`` are then ignored
    — offered load is whatever the loop sustains.  ``retry`` (a
    :class:`~repro.serve.clients.RetryPolicy`, or an int shorthand for
    ``max_retries``) makes rejected sessions retry with backoff instead
    of dropping the request.

    ``admission`` puts an admission-control policy in front of the
    queues in either mode — an
    :class:`~repro.serve.admission.AdmissionPolicy` or its CLI spec
    string (``"queue-cap:64"``, ``"token-bucket:5000"``,
    ``"slo-aware"``).  ``None``/``accept-all`` is the golden-guarded
    no-op.

    ``tenants`` switches the run to **multi-tenant** serving — a
    :class:`~repro.serve.tenancy.TenancyConfig`, a sequence of
    :class:`~repro.serve.tenancy.Tenant` records, or the CLI grammar
    string (``"chat:interactive:w=4:poisson@200,bulk:batch:..."``, see
    :func:`~repro.serve.tenancy.parse_tenants`).  Each tenant then
    carries its own traffic mix, so the run-level ``rps`` /
    ``trace_kind`` / ``seqlen_dist`` / ``seqlen_mean`` knobs are ignored
    (each tenant declares its own); ``scheduler`` picks the dispatch
    order across tenant queues (:data:`~repro.serve.tenancy.SCHEDULERS`)
    and ``preemption`` lets interactive arrivals evict running
    lower-priority batches at an explicit
    ``preemption_overhead_ns`` re-dispatch cost.  Tenants declaring a
    ``rate=`` limit are automatically fronted by per-tenant token
    buckets (:class:`~repro.serve.admission.TenantTokenBucket`)
    composing with any cluster-wide ``admission`` policy.  Multi-tenant
    runs are open-loop (incompatible with ``clients``), and preemption
    cannot run under a power envelope.  A single-tenant ``fifo``
    configuration replays the untagged run byte for byte
    (golden-guarded).

    ``stream_metrics`` hands a fresh :class:`StreamingMetrics` to the
    engine: completions land on constant-memory per-(model, tenant,
    chip type) cells instead of a retained ``ServedRequest`` list, so a
    million-request run costs megabytes instead of gigabytes.  The
    simulation and all latency percentiles stay bit-identical; float
    *sums* (mean latency, energy totals) accumulate per batch and may
    differ in the last ULPs.  ``StreamingMetrics(progress_every=N)``
    additionally emits a rolling p99 line every ``N`` served requests
    (the CLI ``--progress`` flag).

    ``elastic`` runs the fleet under an autoscaling contract
    (:class:`repro.serve.elastic.ElasticConfig`, or the CLI spec string
    ``"MIN:MAX"`` — see :func:`~repro.serve.elastic.parse_autoscale`):
    a controller watches the observed arrival rate (or the closed-loop
    saturation bound), the backlog, and the power envelope, and grows or
    drains the active chip prefix mid-run with a provisioning delay.
    The scaling history lands on ``result.elastic`` and the report gains
    an autoscaling section pricing the run in chip-seconds against
    static peak provisioning.  A static band spanning the whole fleet
    replays the inelastic run byte for byte (golden-guarded); elastic
    runs cannot combine with ``preemption``.

    Observability (:mod:`repro.serve.observe`) is opt-in and an exact
    pass-through — with all of it off the engine takes no extra
    branches, and with it on the :class:`ServingResult` is
    object-for-object identical (golden-guarded).  ``trace_file`` writes
    every request-lifecycle event to that path as streamed JSONL, or as
    Chrome ``trace_event`` JSON when the path ends in ``.json`` (opens
    directly in Perfetto).  ``metrics_file`` samples throughput, queue
    depth, utilization and power on a fixed ``metrics_window_ms`` grid
    and writes CSV (or JSON for ``.json`` paths).  ``observe`` attaches
    any additional :class:`~repro.serve.observe.Observer`; all active
    observers compose.  ``profile_engine`` makes the engine count its
    own event-loop work (events popped by kind, dispatch-scan lengths,
    heap high-water) on ``result.stats.profile``.

    ``decode`` (a :class:`repro.serve.decode.DecodeConfig`) turns every
    transformer request autoregressive: after its prefill pass it samples
    an output length from ``decode.dist`` on a seed lane disjoint from
    arrivals and seqlens, then generates one token per decode iteration
    under **continuous batching** — decode batches re-form every
    iteration, completed requests leave, new ones join mid-flight.  Each
    iteration is costed at the request's *current* context length
    (page-rounded to ``decode.page_tokens``) and its KV cache is checked
    against the chip's leftover on-chip capacity; overflowing KV streams
    at the off-chip rate and surfaces as the report's ``kv_overflow``
    column.  The report gains TTFT and inter-token-latency percentiles
    per model.  ``placement="prefill-decode"`` on a multi-group fleet
    pins prefill to group 0 and decode to the remaining groups.  With
    ``decode=None`` nothing changes — the run replays the decode-free
    goldens byte for byte.

    ``config`` (a :class:`repro.serve.config.ServingConfig`) is the
    grouped form of this entire signature and the primary API: build
    ``ServingConfig(workload=..., fleet=..., policy=..., observe=...,
    decode=...)`` and pass it alone — combining it with any overridden
    flat kwarg raises.  The flat kwargs (keyword-only after ``models``)
    are the sub-config fields, :data:`repro.serve.config.FLAT_KWARGS`;
    both forms funnel through :meth:`ServingConfig.validate` (one rule
    table) and the same simulation core, so they are object-for-object
    identical.
    """
    cfg = _resolve_config(models, config, flat).validate()
    cfg.fleet.power_config  # a bad scalar knob fails before any trace work
    workloads = [get_workload(name) for name in cfg.workload.models]
    return _simulate(cfg, workloads, *_offered_trace(cfg, workloads))


simulate_serving.__signature__ = inspect.Signature(
    [
        inspect.Parameter(
            name,
            inspect.Parameter.POSITIONAL_OR_KEYWORD
            if name == "models"
            else inspect.Parameter.KEYWORD_ONLY,
            default=default,
        )
        for name, (_group, default) in FLAT_KWARGS.items()
    ]
    + [
        inspect.Parameter(
            "config", inspect.Parameter.KEYWORD_ONLY, default=None
        )
    ],
    return_annotation=Tuple[ServingReport, ServingResult],
)


def _resolve_config(
    models: Sequence[str], config: Optional[ServingConfig], flat: dict
) -> ServingConfig:
    """``config=``, or the config the flat kwargs group into (not both)."""
    given = ServingConfig.from_kwargs(models=models, **flat)
    if config is None:
        return given
    overridden = sorted(
        name
        for name, value in dict(flat, models=given.workload.models).items()
        if value != FLAT_KWARGS[name][1]
    )
    if overridden:
        raise ValueError(
            "pass either config= (a ServingConfig) or the flat legacy "
            f"kwargs, not both; got config= plus {overridden}"
        )
    return config


def _offered_trace(
    cfg: ServingConfig, workloads: Sequence[Any]
) -> Tuple[Tuple[Request, ...], int]:
    """A validated config's trace and longest sampled seqlen (0: none)."""
    w, p = cfg.workload, cfg.policy
    models, decode_cfg = w.models, cfg.decode
    tenancy = _resolved_tenancy(w.tenants, p)
    max_context = max(p.seqlen_buckets) if p.seqlen_buckets else None
    if w.clients is not None:
        # Closed loop: sessions generate arrivals, so the only trace work
        # is fixing the padding buckets up front.  Without explicit
        # boundaries, cover up to the longtail sampler's 8x-mean ceiling
        # (longer lognormal draws clamp to the top bucket, the same
        # max-context rule the open-loop path applies).
        trace = ()
        means = [
            w.seqlen_mean if w.seqlen_mean else wl.seq_len
            for wl in workloads
            if wl.seq_len > 0 and w.seqlen_dist is not None
        ]
        max_sampled = 8 * max(means) if means else 0
    elif tenancy is not None:
        # Each tenant declares its own traffic mix; the run-level rps /
        # trace_kind / seqlen knobs do not apply.  Tenant 0 draws from
        # the exact legacy seed lanes, so a single-tenant config
        # reproduces the untagged trace bit for bit.
        trace, max_sampled = tenant_traces(
            tenancy,
            w.duration_s,
            w.seed,
            default_models=models,
            native_seq_len={
                name: wl.seq_len for name, wl in zip(models, workloads)
            },
            max_context=max_context,
        )
    else:
        per_model_rps = w.rps / len(models)
        sub_traces = []
        max_sampled = 0
        for i, (name, workload) in enumerate(zip(models, workloads)):
            sub = make_trace(
                w.trace_kind,
                name,
                per_model_rps,
                w.duration_s,
                seed=w.seed + i,
            )
            if w.seqlen_dist is not None and workload.seq_len > 0:
                mean = w.seqlen_mean if w.seqlen_mean else workload.seq_len
                lens = sample_seqlens(
                    w.seqlen_dist,
                    len(sub),
                    mean,
                    seed=w.seed + _SEQLEN_SEED_OFFSET + i,
                    trace_kind=w.trace_kind,
                )
                if max_context is not None:
                    lens = tuple(min(s, max_context) for s in lens)
                sub = with_seqlens(sub, lens)
                if lens:
                    max_sampled = max(max_sampled, max(lens))
            if decode_cfg is not None and workload.seq_len > 0:
                # Decode lengths draw on their own seed lane (disjoint from
                # arrivals and seqlens), so turning decode on never perturbs
                # the prefill-side trace.
                dlens = sample_decode_lens(
                    decode_cfg,
                    len(sub),
                    seed=w.seed + i,
                    trace_kind=w.trace_kind,
                )
                sub = with_decode_lens(sub, dlens)
            sub_traces.append(sub)
        trace = merge_traces(*sub_traces)
    return trace, max_sampled


def _cluster(f: FleetConfig, workloads: Sequence[Any]) -> Cluster:
    """The chips one fleet config describes, serving ``workloads``."""
    # Both branches forward n_chips/spec/mode so Cluster's own validation
    # rejects contradictions (e.g. a fleet plus mode=, or a mismatched
    # n_chips) instead of silently ignoring an argument.
    return Cluster(
        workloads,
        n_chips=f.n_chips,
        spec=f.spec,
        mode=f.mode,
        placement=f.placement,
        fleet=f.fleet,
    )


def _simulate(
    cfg: ServingConfig,
    workloads: Sequence[Any],
    trace: Tuple[Request, ...],
    max_sampled: int = 0,
) -> Tuple[ServingReport, ServingResult]:
    """Serve ``trace`` under a validated config (the shared core)."""
    w, f, p, o = cfg.workload, cfg.fleet, cfg.policy, cfg.observe
    models, decode_cfg = w.models, cfg.decode
    power = f.power_config
    tenancy = _resolved_tenancy(w.tenants, p)
    if p.seqlen_buckets is not None:
        buckets = p.seqlen_buckets
    elif max_sampled:
        buckets = default_buckets(max_sampled)
    else:
        buckets = ()
    population: Optional[ClientPopulation] = None
    if w.clients is not None:
        population = ClientPopulation(
            models=models,
            n_clients=w.clients,
            think_time_ms=w.think_time_ms,
            think_dist=w.think_dist,
            horizon_s=w.duration_s,
            seed=w.seed,
            retry=RetryPolicy(max_retries=w.retry)
            if isinstance(w.retry, int)
            else w.retry,
            seqlen_dist=w.seqlen_dist,
            seqlen_mean=w.seqlen_mean,
            max_seq_len=max(buckets) if buckets else None,
        )
    cluster = _cluster(f, workloads)
    policy = BatchingPolicy(
        max_batch_size=p.max_batch_size,
        window_ns=p.window_ms * 1e6,
        seqlen_buckets=buckets,
    )
    admission = p.admission
    if tenancy is not None:
        # Tenants declaring a rate= limit get their own admission token
        # buckets, charged at their *declared* rate, in front of any
        # cluster-wide policy.
        limits = {
            t.name: TokenBucket(t.rate_limit_rps, t.rate_limit_burst)
            for t in tenancy.tenants
            if t.rate_limit_rps is not None
        }
        if limits:
            inner = (
                parse_admission(admission)
                if isinstance(admission, str)
                else admission
            )
            admission = TenantTokenBucket(limits, inner=inner)
    observers = [] if o.observe is None else [o.observe]
    if o.trace_file is not None:
        observers.append(lifecycle_tracer(o.trace_file))
    if o.metrics_file is not None:
        observers.append(
            MetricsRecorder(o.metrics_window_ms, path=o.metrics_file)
        )
    engine = ServingEngine(
        cluster,
        policy,
        routing=f.routing,
        power=power,
        admission=admission,
        tenancy=tenancy,
        elastic=parse_autoscale(f.elastic)
        if isinstance(f.elastic, str)
        else f.elastic,
        profile=o.profile_engine,
        decode=decode_cfg,
    )
    result = engine.run(
        trace,
        clients=population,
        stream=o.stream_metrics,
        observe=compose_observers(observers),
    )
    report = summarize(result, cluster, slo_ms=p.slo_ms, tenancy=tenancy)
    return report, result
