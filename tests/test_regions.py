"""Multi-region serving: phase-shifted traces, spill-over, follow-the-sun.

Pins the geo layer's contracts:

* phase-shifted diurnal traces are genuinely shifted (phase=0 is
  bit-identical to the legacy generator; phase=0.5 is not) and each
  region's stream is seed-independent of the others;
* the spill pass is deterministic, conservative (every request is
  served exactly once, somewhere), and charges the RTT to the spilled
  request's client-perceived latency;
* a single region can never spill;
* elastic configs apply independently inside every region and cut the
  fleet's chip-seconds bill;
* the run is a thin driver over ``ServingConfig``: every honoured knob
  reaches every region's engine, the rest raise one message, and the
  ``observe`` Observer receives every spill decision.
"""

import pytest

from repro.serve import (
    DecodeConfig,
    ElasticConfig,
    FleetConfig,
    JsonlTraceSink,
    RegionSpec,
    ServingConfig,
    StreamingMetrics,
    WorkloadConfig,
    diurnal_trace,
    follow_the_sun,
    format_regions,
    simulate_regions,
)
from repro.serve.regions import MSG_REGIONS_UNSUPPORTED


class TestPhase:
    def test_phase_zero_is_bit_identical_to_legacy(self):
        base = diurnal_trace("m", 5000.0, 0.05, seed=3)
        phased = diurnal_trace("m", 5000.0, 0.05, seed=3, phase=0.0)
        assert base == phased

    def test_phase_shifts_the_cycle(self):
        a = diurnal_trace("m", 5000.0, 0.05, seed=3, phase=0.0)
        b = diurnal_trace("m", 5000.0, 0.05, seed=3, phase=0.5)
        assert [r.arrival_ns for r in a] != [r.arrival_ns for r in b]

    def test_antiphase_peaks_oppose(self):
        # With the period equal to the horizon, phase 0 peaks in the
        # first half and phase 0.5 in the second.
        kw = dict(
            rps=20000.0, duration_s=0.05, seed=0,
            amplitude=0.9, period_s=0.05,
        )
        a = diurnal_trace("m", **kw, phase=0.0)
        b = diurnal_trace("m", **kw, phase=0.5)
        mid = 0.025e9
        first_half = sum(1 for r in a if r.arrival_ns < mid) / len(a)
        first_half_b = sum(1 for r in b if r.arrival_ns < mid) / len(b)
        assert first_half > 0.55 > 0.45 > first_half_b


class TestFollowTheSun:
    def test_even_phase_spread(self):
        specs = follow_the_sun(4, rps=1000.0, n_chips=2)
        assert [s.phase for s in specs] == [0.0, 0.25, 0.5, 0.75]
        assert all(s.n_chips == 2 and s.rps == 1000.0 for s in specs)
        assert len({s.name for s in specs}) == 4

    def test_custom_names(self):
        specs = follow_the_sun(2, 100.0, 1, names=("us", "eu"))
        assert [s.name for s in specs] == ["us", "eu"]
        with pytest.raises(ValueError):
            follow_the_sun(3, 100.0, 1, names=("us", "eu"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegionSpec(name="", rps=100.0, n_chips=1)
        with pytest.raises(ValueError):
            RegionSpec(name="r", rps=0.0, n_chips=1)
        with pytest.raises(ValueError):
            RegionSpec(name="r", rps=100.0, n_chips=0)


class TestSimulateRegions:
    def _report(self, **overrides):
        kwargs = dict(
            models=["resnet18"],
            n_regions=3,
            rps=50000.0,
            n_chips=4,
            duration_s=0.05,
            seed=0,
            rtt_ms=1.0,
        )
        kwargs.update(overrides)
        models = kwargs.pop("models")
        return simulate_regions(models, **kwargs)

    def test_conservation_every_request_served_once(self):
        rep = self._report()
        # Per-region offered (local + spilled out) equals generated;
        # pooled served equals total offered.
        total_offered = sum(
            r.n_local + r.n_spilled_out for r in rep.regions
        )
        assert rep.n_requests == total_offered
        assert sum(r.n_spilled_in for r in rep.regions) == rep.n_spilled
        assert sum(r.n_spilled_out for r in rep.regions) == rep.n_spilled

    def test_deterministic(self):
        a = self._report()
        b = self._report()
        assert format_regions(a) == format_regions(b)
        assert a.p99_ms == b.p99_ms and a.chip_seconds == b.chip_seconds

    def test_hot_regions_spill_to_idle_ones(self):
        rep = self._report()
        assert rep.n_spilled > 0
        assert 0.0 < rep.spill_fraction < 0.5

    def test_single_region_never_spills(self):
        rep = self._report(n_regions=1)
        assert rep.n_spilled == 0
        assert len(rep.regions) == 1

    def test_spilled_requests_carry_the_rtt(self):
        cheap = self._report(rtt_ms=0.0)
        dear = self._report(rtt_ms=5.0)
        # Same spill decisions (thresholds don't see the RTT)...
        assert cheap.n_spilled == dear.n_spilled > 0
        # ...but the perceived tail pays for the distance.
        assert dear.p99_ms > cheap.p99_ms

    def test_elastic_regions_cut_chip_seconds(self):
        static = self._report()
        elastic = self._report(
            elastic=ElasticConfig(
                min_chips=1, max_chips=4, provision_delay_ms=2.0
            )
        )
        assert elastic.chip_seconds < static.chip_seconds
        assert all(
            r.result.elastic is not None for r in elastic.regions
        )

    def test_models_draw_their_own_arrivals(self):
        rep = simulate_regions(
            ["resnet18", "alexnet"], n_regions=1, rps=20000.0,
            n_chips=4, duration_s=0.01,
        )
        arrivals = {}
        for s in rep.regions[0].result.served:
            arrivals.setdefault(s.request.model, []).append(
                s.request.arrival_ns
            )
        assert sorted(arrivals) == ["alexnet", "resnet18"]
        assert sorted(arrivals["resnet18"]) != sorted(arrivals["alexnet"])

    def test_spilled_tag_names_source_region(self):
        rep = self._report()
        sources = {s.name for s in (r.spec for r in rep.regions)}
        for region in rep.regions:
            for s in region.result.served:
                if s.request.tenant:
                    assert s.request.tenant in sources
                    assert s.request.tenant != region.spec.name

    def test_format_regions_layout(self):
        text = format_regions(self._report())
        assert "regions           : 3 (12 chips total)" in text
        assert "spill out" in text and "p99 ms" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            self._report(rtt_ms=-1.0)
        with pytest.raises(ValueError):
            self._report(spill_threshold=0.0)
        with pytest.raises(ValueError):
            self._report(spill_window_ms=0.0)
        with pytest.raises(ValueError):
            simulate_regions([], n_regions=2)
        with pytest.raises(ValueError):
            simulate_regions(
                ["resnet18"],
                regions=(
                    RegionSpec("same", 100.0, 1),
                    RegionSpec("same", 100.0, 1),
                ),
            )


class TestConfigDriver:
    _KW = dict(n_regions=3, rps=50000.0, duration_s=0.05)

    def test_config_form_matches_flat_form(self):
        flat = simulate_regions(["resnet18"], n_chips=4, **self._KW)
        config = ServingConfig(
            workload=WorkloadConfig(
                models=("resnet18",), rps=50000.0, duration_s=0.05
            ),
            fleet=FleetConfig(n_chips=4),
        )
        via_config = simulate_regions(config=config, n_regions=3)
        assert format_regions(flat) == format_regions(via_config)
        assert flat.p99_ms == via_config.p99_ms

    def test_default_is_four_chips_per_region(self):
        assert simulate_regions(["resnet18"], **self._KW).n_chips == 12

    def test_config_plus_flat_kwarg_raises(self):
        config = ServingConfig(workload=WorkloadConfig(models=("resnet18",)))
        with pytest.raises(ValueError, match="not both"):
            simulate_regions(config=config, rps=10.0)

    def test_region_wide_knobs_reach_every_engine(self):
        rep = simulate_regions(
            ["resnet18"],
            max_batch_size=4,
            seqlen_buckets=(64, 128),
            admission="queue-cap:8",
            power_cap_w=0.5,
            **self._KW,
        )
        for region in rep.regions:
            result = region.result
            assert result.policy.max_batch_size == 4
            assert result.policy.seqlen_buckets == (64, 128)
            assert result.admission == "queue-cap"
            assert result.power is not None

    def test_admission_sheds_count_as_offered(self):
        rep = simulate_regions(
            ["resnet18"], admission="queue-cap:4", power_cap_w=0.5,
            **self._KW,
        )
        dropped = sum(r.result.n_dropped for r in rep.regions)
        assert dropped > 0
        assert rep.n_offered == rep.n_requests + dropped
        assert f"of {rep.n_offered} offered" in format_regions(rep)

    def test_fleet_sizes_the_default_regions(self):
        rep = simulate_regions(
            ["resnet18"], fleet="yoco:2,isaac:2", **self._KW
        )
        assert [r.spec.n_chips for r in rep.regions] == [4, 4, 4]
        assert all(r.result.n_chips == 4 for r in rep.regions)

    @pytest.mark.parametrize(
        "kwargs, knobs",
        [
            (dict(trace_kind="bursty"), "trace_kind"),
            (dict(tenants="a:interactive:poisson@500"), "tenants"),
            (dict(clients=4, retry=2), "clients"),
            (dict(seqlen_dist="lognormal"), "seqlen_dist"),
            (dict(decode=DecodeConfig()), "decode"),
            (dict(stream_metrics=StreamingMetrics()), "stream_metrics"),
            (dict(trace_file="t.jsonl", metrics_file="m.csv"),
             "trace_file, metrics_file"),
        ],
    )
    def test_unhonoured_knobs_raise_one_message(self, kwargs, knobs):
        with pytest.raises(ValueError) as excinfo:
            simulate_regions(["resnet18"], **kwargs, **self._KW)
        assert str(excinfo.value) == MSG_REGIONS_UNSUPPORTED + knobs

    def test_jsonl_sink_gets_every_spill(self, tmp_path):
        path = tmp_path / "spills.jsonl"
        sink = JsonlTraceSink(str(path))
        rep = simulate_regions(["resnet18"], observe=sink, **self._KW)
        sink.finish(0.0)  # flush and close the standalone sink
        lines = path.read_text().splitlines()
        spills = [line for line in lines if '"ev":"spill"' in line]
        assert len(spills) == rep.n_spilled > 0
        # The per-region engine runs stay unobserved.
        assert len(lines) == rep.n_spilled + 1
