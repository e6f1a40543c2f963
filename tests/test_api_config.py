"""The redesigned ``ServingConfig`` API: one rule table, two doors.

Three contracts, each load-bearing for the PR-10 API redesign:

* **Rule table** — every banned composition in
  :data:`repro.serve.config.COMPOSITION_RULES` raises its canonical
  message, asserted *exactly* (``re.escape``) against the importable
  ``MSG_*`` constants, through ``ServingConfig.validate()``.
* **Engine door** — constructing a :class:`ServingEngine` directly (or
  running it with ``clients=``/``stream=``) with the same bad composition
  raises the *identical* wording, because the engine re-runs the rows
  tagged ``engine`` via :func:`repro.serve.config.validate_engine`.
* **Dual entry** — ``simulate_serving(config=ServingConfig(...))`` and
  the 38-kwarg flat form (derived from the sub-config fields) produce
  object-for-object identical ``(report, result)`` pairs, and mixing
  ``config=`` with overridden flat kwargs is rejected naming the
  offenders.

Plus unit tests of the pure CLI translation
:func:`repro.cli.serve_config_from_args` (args in, ``ServingConfig``
out, no simulation started).
"""

import inspect
import re

import pytest

import repro.serve

from repro.cli import build_parser, main, serve_config_from_args
from repro.models.zoo import get_workload
from repro.serve import (
    ClientPopulation,
    Cluster,
    DecodeConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    ServingEngine,
    StreamingMetrics,
    TenancyConfig,
    WorkloadConfig,
    parse_autoscale,
    parse_tenants,
    simulate_serving,
)
from repro.serve.config import (
    COMPOSITION_RULES,
    FLAT_KWARGS,
    MSG_CLIENTS_MIN,
    MSG_DECODE_CLIENTS,
    MSG_DECODE_ELASTIC,
    MSG_DECODE_STREAM,
    MSG_DECODE_TENANTS,
    MSG_NEED_MODELS,
    MSG_PD_NEEDS_DECODE,
    MSG_PD_NEEDS_GROUPS,
    MSG_POWER_BOTH,
    MSG_PREEMPT_ELASTIC,
    MSG_PREEMPT_POWER,
    MSG_RETRY_OPEN_LOOP,
    MSG_SCHEDULER_NEEDS_TENANTS,
    MSG_TENANTS_CLIENTS,
    msg_unknown_routing,
    msg_unknown_seqlen_dist,
)

TENANTS = "chat:interactive:w=4:poisson@200:model=mobilebert"


def _cfg(*, workload=None, fleet=None, policy=None, observe=None, decode=None):
    return ServingConfig(
        workload=workload or WorkloadConfig(models=("mobilebert",)),
        fleet=fleet or FleetConfig(),
        policy=policy or PolicyConfig(),
        observe=observe or ObserveConfig(),
        decode=decode,
    )


#: (config, canonical message) — one entry per rule-table row.
_VIOLATIONS = [
    pytest.param(
        _cfg(workload=WorkloadConfig(models=())),
        MSG_NEED_MODELS,
        id="need-models",
    ),
    pytest.param(
        _cfg(fleet=FleetConfig(power=PowerConfig(), power_cap_w=50.0)),
        MSG_POWER_BOTH,
        id="power-both",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(
                models=("mobilebert",), seqlen_dist="weird"
            )
        ),
        msg_unknown_seqlen_dist("weird"),
        id="unknown-seqlen-dist",
    ),
    pytest.param(
        _cfg(workload=WorkloadConfig(models=("mobilebert",), clients=0)),
        MSG_CLIENTS_MIN,
        id="clients-min",
    ),
    pytest.param(
        _cfg(workload=WorkloadConfig(models=("mobilebert",), retry=2)),
        MSG_RETRY_OPEN_LOOP,
        id="retry-open-loop",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(
                models=("mobilebert",), tenants=TENANTS, clients=2
            )
        ),
        MSG_TENANTS_CLIENTS,
        id="tenants-clients",
    ),
    pytest.param(
        _cfg(policy=PolicyConfig(preemption=True)),
        MSG_SCHEDULER_NEEDS_TENANTS,
        id="scheduler-needs-tenants",
    ),
    pytest.param(
        _cfg(fleet=FleetConfig(routing="warpspeed")),
        msg_unknown_routing("warpspeed"),
        id="unknown-routing",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            policy=PolicyConfig(preemption=True),
            fleet=FleetConfig(power_cap_w=50.0),
        ),
        MSG_PREEMPT_POWER,
        id="preempt-power",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            policy=PolicyConfig(preemption=True),
            fleet=FleetConfig(elastic="1:8"),
        ),
        MSG_PREEMPT_ELASTIC,
        id="preempt-elastic",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            decode=DecodeConfig(),
        ),
        MSG_DECODE_TENANTS,
        id="decode-tenants",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), clients=2),
            decode=DecodeConfig(),
        ),
        MSG_DECODE_CLIENTS,
        id="decode-clients",
    ),
    pytest.param(
        _cfg(fleet=FleetConfig(elastic="1:8"), decode=DecodeConfig()),
        MSG_DECODE_ELASTIC,
        id="decode-elastic",
    ),
    pytest.param(
        _cfg(
            observe=ObserveConfig(
                stream_metrics=StreamingMetrics(progress_every=100)
            ),
            decode=DecodeConfig(),
        ),
        MSG_DECODE_STREAM,
        id="decode-stream",
    ),
    pytest.param(
        _cfg(
            fleet=FleetConfig(
                fleet="yoco:2,isaac:2", placement="prefill-decode"
            )
        ),
        MSG_PD_NEEDS_DECODE,
        id="pd-needs-decode",
    ),
    pytest.param(
        _cfg(
            fleet=FleetConfig(fleet="yoco:4", placement="prefill-decode"),
            decode=DecodeConfig(),
        ),
        MSG_PD_NEEDS_GROUPS,
        id="pd-needs-groups",
    ),
]


def _violation_of(rule):
    """The ``_VIOLATIONS`` entry whose config trips ``rule`` first."""
    for param in _VIOLATIONS:
        config, message = param.values
        if rule.check(config) == message:
            return param
    raise AssertionError(f"no _VIOLATIONS config exercises {rule}")


class TestRuleTable:
    @pytest.mark.parametrize("config,message", _VIOLATIONS)
    def test_violation_raises_the_canonical_message(self, config, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config.validate()

    def test_valid_config_validates_and_chains(self):
        config = _cfg()
        assert config.validate() is config

    def test_tenant_models_must_be_served(self):
        config = _cfg(
            workload=WorkloadConfig(models=("resnet18",), tenants=TENANTS)
        )
        with pytest.raises(ValueError, match="serves \\['resnet18'\\]"):
            config.validate()

    def test_every_row_is_exercised(self):
        # Every row fires on some violation config, and validate() on that
        # config raises this row's message (no earlier row shadows it).
        for rule in COMPOSITION_RULES:
            config, message = _violation_of(rule).values
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                config.validate()

    def test_thermal_tau_alone_is_a_power_envelope(self, monkeypatch):
        # thermal_tau_s alone builds a governor, so preemption must be
        # rejected by validate() before any trace is generated.
        def no_trace(*args, **kwargs):
            raise AssertionError("trace generated before validation")

        for name in ("make_trace", "tenant_traces", "merge_traces"):
            monkeypatch.setattr(repro.serve, name, no_trace)
        config = _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            policy=PolicyConfig(preemption=True),
            fleet=FleetConfig(thermal_tau_s=0.5),
        )
        assert config.fleet.power_config == PowerConfig(thermal_tau_s=0.5)
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PREEMPT_POWER)}$"
        ):
            config.validate()
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PREEMPT_POWER)}$"
        ):
            simulate_serving(config=config)

    def test_power_config_resolves_once(self):
        assert FleetConfig().power_config is None
        explicit = PowerConfig(power_cap_w=1.0)
        assert FleetConfig(power=explicit).power_config is explicit
        assert FleetConfig(power_cap_w=1.0, t_max_c=80.0).power_config == (
            PowerConfig(power_cap_w=1.0, t_max_c=80.0)
        )


def _clients():
    return ClientPopulation(models=("mobilebert",), n_clients=2)


def _preempting():
    return TenancyConfig(parse_tenants(TENANTS), preemption=True)


#: ``_VIOLATIONS`` id of each ``engine`` row -> the same bad composition
#: walked in through the ServingEngine door (constructor or ``run``).
_ENGINE_DOOR = {
    "tenants-clients": lambda cluster: ServingEngine(
        cluster, tenancy=TenancyConfig(parse_tenants(TENANTS))
    ).run(clients=_clients()),
    "unknown-routing": lambda cluster: ServingEngine(
        cluster, routing="warpspeed"
    ),
    "preempt-power": lambda cluster: ServingEngine(
        cluster, tenancy=_preempting(), power=PowerConfig()
    ),
    "preempt-elastic": lambda cluster: ServingEngine(
        cluster, tenancy=_preempting(), elastic=parse_autoscale("1:2")
    ),
    "decode-tenants": lambda cluster: ServingEngine(
        cluster,
        tenancy=TenancyConfig(parse_tenants(TENANTS)),
        decode=DecodeConfig(),
    ),
    "decode-clients": lambda cluster: ServingEngine(
        cluster, decode=DecodeConfig()
    ).run(clients=_clients()),
    "decode-elastic": lambda cluster: ServingEngine(
        cluster, elastic=parse_autoscale("1:2"), decode=DecodeConfig()
    ),
    "decode-stream": lambda cluster: ServingEngine(
        cluster, decode=DecodeConfig()
    ).run(stream=StreamingMetrics()),
    "pd-needs-decode": lambda cluster: ServingEngine(
        Cluster(
            [get_workload("mobilebert")],
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
        )
    ),
}


class TestEngineDoor:
    """Direct ServingEngine construction raises the identical wording."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return Cluster([get_workload("mobilebert")], n_chips=2)

    @pytest.mark.parametrize(
        "rule",
        [rule for rule in COMPOSITION_RULES if rule.engine],
        ids=lambda rule: _violation_of(rule).id,
    )
    def test_every_engine_row(self, cluster, rule):
        param = _violation_of(rule)
        message = param.values[1]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _ENGINE_DOOR[param.id](cluster)

    def test_engine_door_covers_only_engine_rows(self):
        engine_ids = {
            _violation_of(rule).id for rule in COMPOSITION_RULES if rule.engine
        }
        assert engine_ids == set(_ENGINE_DOOR)

    def test_unknown_routing(self, cluster):
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(msg_unknown_routing('warpspeed'))}$",
        ):
            ServingEngine(cluster, routing="warpspeed")

    def test_decode_with_tenancy(self, cluster):
        tenancy = TenancyConfig(parse_tenants(TENANTS))
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_TENANTS)}$"
        ):
            ServingEngine(cluster, tenancy=tenancy, decode=DecodeConfig())

    def test_decode_with_elastic(self, cluster):
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_ELASTIC)}$"
        ):
            ServingEngine(
                cluster, elastic=parse_autoscale("1:2"), decode=DecodeConfig()
            )

    def test_preempt_with_power(self, cluster):
        tenancy = TenancyConfig(parse_tenants(TENANTS), preemption=True)
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PREEMPT_POWER)}$"
        ):
            ServingEngine(cluster, tenancy=tenancy, power=PowerConfig())

    def test_prefill_decode_cluster_needs_decode(self):
        cluster = Cluster(
            [get_workload("mobilebert")],
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_DECODE)}$"
        ):
            ServingEngine(cluster)

    def test_prefill_decode_cluster_needs_groups(self):
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_GROUPS)}$"
        ):
            Cluster(
                [get_workload("mobilebert")],
                n_chips=4,
                placement="prefill-decode",
            )


#: Legacy flat-kwarg scenarios spanning every config group; each must be
#: object-for-object identical through the grouped-config door.
_SCENARIOS = [
    pytest.param(dict(models=["resnet18"], n_chips=2), id="plain"),
    pytest.param(
        dict(
            models=["mobilebert"],
            n_chips=2,
            seqlen_dist="lognormal",
            seqlen_mean=128,
            seqlen_buckets=[64, 128, 256, 512],
        ),
        id="seqlen",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            fleet="yoco:2,isaac:2",
            routing="cheapest-energy",
        ),
        id="fleet-routing",
    ),
    pytest.param(
        dict(models=["resnet18"], n_chips=2, power_cap_w=30.0, t_max_c=85.0),
        id="power-scalars",
    ),
    pytest.param(
        dict(
            models=["resnet18"],
            n_chips=2,
            clients=4,
            retry=2,
            admission="queue-cap:8",
        ),
        id="clients-retry-admission",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            n_chips=2,
            tenants=TENANTS,
            scheduler="weighted-fair",
        ),
        id="tenants-scheduler",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            n_chips=2,
            decode=DecodeConfig(dist="uniform", mean_tokens=8),
        ),
        id="decode",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
            decode=DecodeConfig(dist="lognormal", mean_tokens=8),
        ),
        id="prefill-decode",
    ),
]


class TestDualEntry:
    @pytest.mark.parametrize("kwargs", _SCENARIOS)
    def test_legacy_and_config_doors_are_identical(self, kwargs):
        legacy = simulate_serving(duration_s=0.02, **kwargs)
        config = ServingConfig.from_kwargs(duration_s=0.02, **kwargs)
        via_config = simulate_serving(config=config)
        assert legacy[0] == via_config[0]  # ServingReport
        assert legacy[1] == via_config[1]  # ServingResult

    def test_config_plus_overridden_kwargs_rejected_by_name(self):
        config = ServingConfig.from_kwargs(models=["resnet18"], n_chips=2)
        with pytest.raises(
            ValueError, match=r"\['models', 'n_chips'\]"
        ):
            simulate_serving(models=["mobilebert"], n_chips=8, config=config)

    def test_config_plus_default_kwargs_is_fine(self):
        config = ServingConfig.from_kwargs(
            models=["resnet18"], n_chips=1, duration_s=0.01
        )
        report, result = simulate_serving(config=config)
        assert report.n_requests == len(result.served)

    def test_from_kwargs_groups_every_field(self):
        config = ServingConfig.from_kwargs(
            models=["mobilebert"],
            n_chips=2,
            rps=500.0,
            seqlen_dist="uniform",
            clients=None,
            scheduler="fifo",
            metrics_window_ms=2.0,
            decode=DecodeConfig(mean_tokens=4),
        )
        assert config.workload.models == ("mobilebert",)
        assert config.workload.rps == 500.0
        assert config.workload.seqlen_dist == "uniform"
        assert config.fleet.n_chips == 2
        assert config.observe.metrics_window_ms == 2.0
        assert config.decode == DecodeConfig(mean_tokens=4)


#: The flat kwargs of ``simulate_serving``, written out once as the pin.
_FLAT_NAMES = {
    "models", "n_chips", "rps", "duration_s", "trace_kind", "seed", "spec",
    "mode", "placement", "max_batch_size", "window_ms", "slo_ms",
    "seqlen_dist", "seqlen_mean", "seqlen_buckets", "fleet", "routing",
    "power", "power_cap_w", "thermal_tau_s", "t_max_c", "clients",
    "think_time_ms", "think_dist", "retry", "admission", "tenants",
    "scheduler", "preemption", "preemption_overhead_ns", "stream_metrics",
    "elastic", "observe", "trace_file", "metrics_file", "metrics_window_ms",
    "profile_engine", "decode",
}


class TestFlatSurface:
    def test_flat_kwargs_are_the_sub_config_fields(self):
        assert len(_FLAT_NAMES) == 38
        assert set(FLAT_KWARGS) == _FLAT_NAMES

    def test_signature_lists_every_flat_kwarg(self):
        params = inspect.signature(simulate_serving).parameters
        assert set(params) == _FLAT_NAMES | {"config"}
        assert list(params)[0] == "models"
        assert params["rps"].default == 2000.0
        assert params["rps"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["config"].default is None

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="warp_factor"):
            simulate_serving(["resnet18"], warp_factor=9)
        config = ServingConfig.from_kwargs(models=["resnet18"])
        with pytest.raises(TypeError, match="warp_factor"):
            simulate_serving(config=config, warp_factor=9)
        with pytest.raises(TypeError, match="warp_factor"):
            ServingConfig.from_kwargs(warp_factor=9)

    def test_second_positional_is_a_type_error(self):
        with pytest.raises(TypeError):
            simulate_serving(["resnet18"], 2)

    def test_bare_model_name_is_one_model(self):
        assert WorkloadConfig(models="resnet18").models == ("resnet18",)
        flat = simulate_serving("resnet18", n_chips=2, duration_s=0.01)
        config = ServingConfig(
            workload=WorkloadConfig(models="resnet18", duration_s=0.01),
            fleet=FleetConfig(n_chips=2),
        )
        via_config = simulate_serving(config=config)
        assert flat[0].per_model[0].model == "resnet18"
        assert flat[0] == via_config[0]
        assert flat[1] == via_config[1]


class TestCliTranslation:
    """serve_config_from_args is pure: args in, ServingConfig out."""

    def _config(self, *argv):
        args = build_parser().parse_args(["serve", *argv])
        return serve_config_from_args(args)

    def test_defaults(self):
        config = self._config()
        assert config.workload.models == ("resnet18",)
        assert config.fleet.n_chips == 4
        assert config.fleet.placement == "replicated"
        assert config.decode is None
        config.validate()

    def test_decode_flags_build_a_decode_config(self):
        config = self._config(
            "--model", "mobilebert",
            "--decode-dist", "lognormal",
            "--decode-mean", "64",
            "--decode-max", "256",
        )
        assert config.decode == DecodeConfig(
            dist="lognormal", mean_tokens=64, max_tokens=256
        )
        config.validate()

    def test_prefill_decode_placement_requires_decode_dist(self):
        config = self._config(
            "--fleet", "yoco:4,isaac:4", "--placement", "prefill-decode"
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_DECODE)}$"
        ):
            config.validate()

    def test_decode_rejects_closed_loop(self):
        config = self._config(
            "--model", "mobilebert", "--decode-dist", "fixed",
            "--clients", "4",
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_CLIENTS)}$"
        ):
            config.validate()

    _DECODE = ["--model", "mobilebert", "--decode-dist", "fixed"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "mobilebert", "--tenants", TENANTS,
              "--clients", "4"], MSG_TENANTS_CLIENTS),
            (["--scheduler", "weighted-fair"], MSG_SCHEDULER_NEEDS_TENANTS),
            (["--preempt"], MSG_SCHEDULER_NEEDS_TENANTS),
            (["--model", "mobilebert", "--tenants", TENANTS, "--preempt",
              "--power-cap", "0.5"], MSG_PREEMPT_POWER),
            (["--retries", "2"], MSG_RETRY_OPEN_LOOP),
            (["--retries", "0"], MSG_RETRY_OPEN_LOOP),
            (["--clients", "0"], MSG_CLIENTS_MIN),
            (["--model", "mobilebert", "--tenants", TENANTS, "--preempt",
              "--autoscale", "1:4"], MSG_PREEMPT_ELASTIC),
            (_DECODE + ["--clients", "4"], MSG_DECODE_CLIENTS),
            (_DECODE + ["--tenants", TENANTS], MSG_DECODE_TENANTS),
            (_DECODE + ["--autoscale", "1:4"], MSG_DECODE_ELASTIC),
            (_DECODE + ["--progress", "10"], MSG_DECODE_STREAM),
            (["--fleet", "yoco:4,isaac:4", "--placement", "prefill-decode"],
             MSG_PD_NEEDS_DECODE),
        ],
    )
    def test_cli_exits_with_the_canonical_message(self, argv, message):
        """The CLI restates no rule: validate() words every rejection."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert str(excinfo.value) == f"serve: {message}"

    def test_fleet_leaves_n_chips_unset(self):
        config = self._config("--fleet", "yoco:2,isaac:2")
        assert config.fleet.n_chips is None
        assert config.fleet.fleet is not None
        config.validate()

    def test_thermal_tau_forwarded_only_with_a_constraint(self):
        alone = self._config("--thermal-tau", "0.5")
        assert alone.fleet.thermal_tau_s is None
        capped = self._config("--thermal-tau", "0.5", "--power-cap", "40")
        assert capped.fleet.thermal_tau_s == 0.5
        assert capped.fleet.power_cap_w == 40.0

    def test_prefill_decode_cli_round_trip(self):
        config = self._config(
            "--model", "mobilebert",
            "--fleet", "yoco:4,isaac:4",
            "--placement", "prefill-decode",
            "--decode-dist", "uniform",
        )
        assert config.fleet.placement == "prefill-decode"
        assert config.decode.dist == "uniform"
        config.validate()
