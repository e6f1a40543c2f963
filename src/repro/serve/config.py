"""`ServingConfig`: the grouped, validated serving API.

Serving knobs group into five sub-configs —

* :class:`WorkloadConfig` — what traffic arrives (models, rates, traces,
  sequence lengths, closed-loop sessions, tenants);
* :class:`FleetConfig` — what serves it (chips, placement, routing,
  power envelope, autoscaling band);
* :class:`PolicyConfig` — how it is scheduled (batching, SLO, admission,
  tenant scheduling, preemption);
* :class:`ObserveConfig` — what is recorded (tracing, metrics export,
  streaming cells, engine profiling);
* :class:`repro.serve.decode.DecodeConfig` — the autoregressive decode
  loop (optional);

assembled by :class:`ServingConfig`, whose :meth:`ServingConfig.validate`
runs **every** banned-composition rule as one ordered table
(:data:`COMPOSITION_RULES`) with uniform error messages.  The
``ServingEngine`` constructor and ``ServingEngine.run`` route their own
composition checks through the same table (:func:`validate_engine`, the
rows tagged ``engine``), so an invalid pairing raises the identical
message no matter which door it walks in through.

``simulate_serving(config=...)`` is the primary entry point.  The flat
kwarg form is derived from the sub-config fields (:data:`FLAT_KWARGS`):
:meth:`ServingConfig.from_kwargs` groups the kwargs and delegates —
object-for-object identical results, differential-tested in
``tests/test_api_config.py``.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.arch.accelerator import AcceleratorSpec
from repro.serve.admission import AdmissionPolicy
from repro.serve.clients import ClientPopulation, RetryPolicy
from repro.serve.decode import DecodeConfig
from repro.serve.elastic import ElasticConfig
from repro.serve.fleet import FleetSpec, parse_fleet
from repro.serve.power import PowerConfig
from repro.serve.tenancy import Tenant, TenancyConfig, parse_tenants
from repro.serve.traces import SEQLEN_DISTS

if TYPE_CHECKING:  # type-only: observe pulls in metrics -> engine -> here
    from repro.serve.observe import Observer
    from repro.serve.streaming import StreamingMetrics

#: Routing policies the engine dispatch loop implements.  Lives here (not
#: in ``engine.py``) so the validation table can name the menu without a
#: circular import; ``repro.serve.engine`` re-exports it.
ROUTING_POLICIES = ("fastest", "cheapest-energy", "round-robin")


# -- grouped sub-configs -------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """What traffic arrives: models, rates, shapes, sessions, tenants."""

    models: Sequence[str] = ()
    rps: float = 2000.0
    duration_s: float = 0.1
    trace_kind: str = "poisson"
    seed: int = 0
    seqlen_dist: Optional[str] = None
    seqlen_mean: Optional[int] = None
    clients: Optional[int] = None
    think_time_ms: float = 5.0
    think_dist: str = "exponential"
    retry: Optional[Union[int, RetryPolicy]] = None
    tenants: Optional[Union[str, Sequence[Tenant], TenancyConfig]] = None

    def __post_init__(self) -> None:
        # A bare model name is one model, not a sequence of characters.
        models = self.models
        models = (models,) if isinstance(models, str) else tuple(models)
        object.__setattr__(self, "models", models)


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """What serves it: chips, placement, routing, power, autoscaling."""

    n_chips: Optional[int] = None
    spec: Optional[AcceleratorSpec] = None
    mode: str = "batched"
    placement: str = "replicated"
    fleet: Optional[Union[FleetSpec, str]] = None
    routing: str = "fastest"
    power: Optional[PowerConfig] = None
    power_cap_w: Optional[float] = None
    thermal_tau_s: Optional[float] = None
    t_max_c: Optional[float] = None
    elastic: Optional[Union[ElasticConfig, str]] = None

    @property
    def power_config(self) -> Optional[PowerConfig]:
        """The power envelope: ``power``, or one built from scalar knobs."""
        if self.power is not None:
            return self.power
        if (
            self.power_cap_w is None
            and self.thermal_tau_s is None
            and self.t_max_c is None
        ):
            return None
        tau_kwargs = (
            {} if self.thermal_tau_s is None
            else {"thermal_tau_s": self.thermal_tau_s}
        )
        return PowerConfig(
            power_cap_w=self.power_cap_w, t_max_c=self.t_max_c, **tau_kwargs
        )


@dataclasses.dataclass(frozen=True)
class PolicyConfig:
    """How it is scheduled: batching, SLO, admission, tenancy knobs."""

    max_batch_size: int = 8
    window_ms: float = 0.2
    slo_ms: Optional[float] = None
    seqlen_buckets: Optional[Sequence[int]] = None
    admission: Optional[Union[str, AdmissionPolicy]] = None
    scheduler: str = "fifo"
    preemption: bool = False
    preemption_overhead_ns: float = 10_000.0

    def __post_init__(self) -> None:
        if self.seqlen_buckets is not None:
            object.__setattr__(
                self, "seqlen_buckets", tuple(int(b) for b in self.seqlen_buckets)
            )


@dataclasses.dataclass(frozen=True)
class ObserveConfig:
    """What is recorded: tracing, metrics export, streaming, profiling."""

    observe: Optional[Observer] = None
    stream_metrics: Optional[StreamingMetrics] = None
    trace_file: Optional[str] = None
    metrics_file: Optional[str] = None
    metrics_window_ms: float = 1.0
    profile_engine: bool = False


#: The grouped sub-configs of :class:`ServingConfig`, by field name.
_SUB_CONFIGS = {
    "workload": WorkloadConfig,
    "fleet": FleetConfig,
    "policy": PolicyConfig,
    "observe": ObserveConfig,
}

#: Every flat ``simulate_serving`` kwarg -> (``ServingConfig`` field it
#: belongs to, default).  Derived from the sub-config fields, so a new
#: knob is declared once, on its sub-config; ``decode`` is a whole field.
FLAT_KWARGS: Dict[str, Tuple[str, Any]] = {
    field.name: (group, field.default)
    for group, sub_config in _SUB_CONFIGS.items()
    for field in dataclasses.fields(sub_config)
}
FLAT_KWARGS["decode"] = ("decode", None)


# -- the composition-rule table ------------------------------------------------------
#: Exact messages of every banned composition, importable so tests (and
#: the engine) assert/raise the one canonical wording.
MSG_NEED_MODELS = "need at least one model to serve"
MSG_POWER_BOTH = (
    "pass either a full PowerConfig or the scalar power knobs, not both"
)
MSG_CLIENTS_MIN = "clients must be >= 1 (None for open-loop traces)"
MSG_RETRY_OPEN_LOOP = (
    "retry-with-backoff needs closed-loop clients; open-loop rejections "
    "always drop"
)
MSG_TENANTS_CLIENTS = (
    "multi-tenant serving is open-loop; it cannot combine with "
    "closed-loop clients"
)
MSG_SCHEDULER_NEEDS_TENANTS = (
    "scheduler/preemption knobs need a multi-tenant run; pass tenants="
)
MSG_PREEMPT_POWER = (
    "preemption cannot run under a power governor: admitted batches draw "
    "power through to their completion instant and the governor has no "
    "cancellation edge"
)
MSG_PREEMPT_ELASTIC = (
    "preemption cannot run on an elastic fleet: the deadline probe reads "
    "every hosting chip's natural free instant, and a parked chip would "
    "look permanently free to it"
)
MSG_DECODE_TENANTS = (
    "autoregressive decode is single-workload for now: tenant queues "
    "carry no decode lanes; pass tenants= or decode=, not both"
)
MSG_DECODE_CLIENTS = (
    "autoregressive decode is open-loop for now: closed-loop sessions "
    "block on whole responses, not tokens; pass an open-loop trace "
    "instead of clients="
)
MSG_DECODE_ELASTIC = (
    "autoregressive decode cannot run on an elastic fleet: decode "
    "batches re-form every iteration and a draining chip would strand "
    "half-decoded requests"
)
MSG_DECODE_STREAM = (
    "autoregressive decode reports TTFT/ITL percentiles from retained "
    "results; streaming metrics cells cannot hold per-token timings"
)
MSG_PD_NEEDS_DECODE = (
    "the prefill-decode placement specializes chip groups for a decode "
    "loop; pass decode= (--decode-dist) as well"
)
MSG_PD_NEEDS_GROUPS = (
    "the prefill-decode placement pins prefill and decode to different "
    "chip groups; pass a multi-group fleet (e.g. --fleet yoco:4,isaac:4)"
)


def msg_unknown_routing(routing: str) -> str:
    return f"unknown routing {routing!r}; available: {ROUTING_POLICIES}"


def msg_unknown_seqlen_dist(dist: str) -> str:
    return f"unknown seqlen dist {dist!r}; available: {SEQLEN_DISTS}"


def _resolved_tenancy(
    tenants: Optional[Union[str, Sequence[Tenant], TenancyConfig]],
    policy: PolicyConfig,
) -> Optional[TenancyConfig]:
    """Coerce the tenants knob into a TenancyConfig (None passes through)."""
    if tenants is None:
        return None
    if isinstance(tenants, TenancyConfig):
        return tenants
    tenant_tuple = (
        parse_tenants(tenants) if isinstance(tenants, str) else tuple(tenants)
    )
    return TenancyConfig(
        tenant_tuple,
        scheduler=policy.scheduler,
        preemption=policy.preemption,
        preemption_overhead_ns=policy.preemption_overhead_ns,
    )


def _fleet_groups(fleet: Optional[Union[FleetSpec, str]]) -> int:
    """Number of chip groups a fleet knob resolves to (0 = no fleet)."""
    if fleet is None:
        return 0
    spec = parse_fleet(fleet) if isinstance(fleet, str) else fleet
    return len(spec.groups)


class Rule(NamedTuple):
    """One banned composition: ``check`` returns its message when violated.

    ``engine`` rows are the ones the ``ServingEngine`` door re-runs
    through :func:`validate_engine`.
    """

    check: Callable[["ServingConfig"], Optional[str]]
    engine: bool = False


#: The single ordered table of banned compositions.  Each row inspects a
#: :class:`ServingConfig` and returns the canonical error message when
#: violated (None when fine); ``validate()`` raises the first hit.
COMPOSITION_RULES: Tuple[Rule, ...] = (
    Rule(lambda c: MSG_NEED_MODELS if not c.workload.models else None),
    Rule(
        lambda c: MSG_POWER_BOTH
        if c.fleet.power is not None
        and (
            c.fleet.power_cap_w is not None
            or c.fleet.thermal_tau_s is not None
            or c.fleet.t_max_c is not None
        )
        else None
    ),
    Rule(
        lambda c: msg_unknown_seqlen_dist(c.workload.seqlen_dist)
        if c.workload.seqlen_dist is not None
        and c.workload.seqlen_dist not in SEQLEN_DISTS
        else None
    ),
    Rule(
        lambda c: MSG_CLIENTS_MIN
        if c.workload.clients is not None and c.workload.clients < 1
        else None
    ),
    Rule(
        lambda c: MSG_RETRY_OPEN_LOOP
        if c.workload.retry is not None and c.workload.clients is None
        else None
    ),
    Rule(
        lambda c: MSG_TENANTS_CLIENTS
        if c.workload.tenants is not None and c.workload.clients is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_SCHEDULER_NEEDS_TENANTS
        if c.workload.tenants is None
        and (c.policy.scheduler != "fifo" or c.policy.preemption)
        else None
    ),
    Rule(
        lambda c: msg_unknown_routing(c.fleet.routing)
        if c.fleet.routing not in ROUTING_POLICIES
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_PREEMPT_POWER
        if c._preempting and c.fleet.power_config is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_PREEMPT_ELASTIC
        if c._preempting and c.fleet.elastic is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_DECODE_TENANTS
        if c.decode is not None and c.workload.tenants is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_DECODE_CLIENTS
        if c.decode is not None and c.workload.clients is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_DECODE_ELASTIC
        if c.decode is not None and c.fleet.elastic is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_DECODE_STREAM
        if c.decode is not None and c.observe.stream_metrics is not None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_PD_NEEDS_DECODE
        if c.fleet.placement == "prefill-decode" and c.decode is None
        else None,
        engine=True,
    ),
    Rule(
        lambda c: MSG_PD_NEEDS_GROUPS
        if c.fleet.placement == "prefill-decode"
        and _fleet_groups(c.fleet.fleet) < 2
        else None
    ),
)


def _raise_first(config: "ServingConfig", rules: Iterable[Rule]) -> None:
    for rule in rules:
        message = rule.check(config)
        if message is not None:
            raise ValueError(message)


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """One validated serving scenario: workload x fleet x policy x observe.

    Build it directly from grouped sub-configs, or from flat kwargs via
    :meth:`from_kwargs`.  :meth:`validate` applies
    :data:`COMPOSITION_RULES` and returns ``self`` so call sites can
    chain ``ServingConfig(...).validate()``.
    """

    workload: WorkloadConfig
    fleet: FleetConfig = FleetConfig()
    policy: PolicyConfig = PolicyConfig()
    observe: ObserveConfig = ObserveConfig()
    decode: Optional[DecodeConfig] = None

    @property
    def _preempting(self) -> bool:
        if isinstance(self.workload.tenants, TenancyConfig):
            return self.workload.tenants.preemption
        if self.workload.tenants is not None:
            return self.policy.preemption
        return False

    def validate(self) -> "ServingConfig":
        """Apply every composition rule; raise the first violation."""
        _raise_first(self, COMPOSITION_RULES)
        # Tenant model declarations must name served models (needs the
        # parsed tenancy, so it sits after the table proper).
        tenancy = _resolved_tenancy(self.workload.tenants, self.policy)
        if tenancy is not None:
            models = self.workload.models
            for tenant in tenancy.tenants:
                unknown = [m for m in tenant.models if m not in models]
                if unknown:
                    raise ValueError(
                        f"tenant {tenant.name!r} calls {unknown} but the "
                        f"run serves {list(models)}"
                    )
        return self

    # -- construction helpers --------------------------------------------------
    @classmethod
    def from_kwargs(cls, **flat: Any) -> "ServingConfig":
        """Group flat ``simulate_serving`` kwargs (:data:`FLAT_KWARGS`)."""
        unknown = sorted(flat.keys() - FLAT_KWARGS.keys())
        if unknown:
            raise TypeError(f"unexpected keyword arguments {unknown}")
        grouped: Dict[str, Dict[str, Any]] = {g: {} for g in _SUB_CONFIGS}
        for name, value in flat.items():
            if name != "decode":
                grouped[FLAT_KWARGS[name][0]][name] = value
        return cls(
            decode=flat.get("decode"),
            **{g: _SUB_CONFIGS[g](**kw) for g, kw in grouped.items()},
        )


def validate_engine(
    routing: str = "fastest",
    power: Optional[PowerConfig] = None,
    tenancy: Optional[TenancyConfig] = None,
    elastic: Optional[ElasticConfig] = None,
    decode: Optional[DecodeConfig] = None,
    placement: str = "replicated",
    clients: Optional[ClientPopulation] = None,
    stream: Optional[StreamingMetrics] = None,
) -> None:
    """Re-run the ``engine`` rows of :data:`COMPOSITION_RULES`.

    ``ServingEngine`` calls this with its resolved arguments (and ``run``
    with its ``clients``/``stream``), viewed as a :class:`ServingConfig`,
    so direct engine use raises the identical messages as
    ``ServingConfig.validate()`` — one table, two doors.
    """
    view = ServingConfig(
        workload=WorkloadConfig(
            clients=None if clients is None else clients.n_clients,
            tenants=tenancy,
        ),
        fleet=FleetConfig(
            placement=placement, routing=routing, power=power, elastic=elastic
        ),
        observe=ObserveConfig(stream_metrics=stream),
        decode=decode,
    )
    _raise_first(view, (rule for rule in COMPOSITION_RULES if rule.engine))
