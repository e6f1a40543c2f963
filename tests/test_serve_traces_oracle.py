"""Single-pass trace building against frozen copies of the scalar generators.

* **Stream layout.**  :func:`make_trace` must reproduce, bit for bit, the
  arrival times of the scalar draw-and-accumulate loops the generators
  started from (frozen below), for every trace kind and many seeds —
  including Poisson traces long enough that the vectorized draw crosses
  chunk boundaries.
* **Tie-breaks.**  :func:`merge_traces` and :func:`tenant_traces` must order
  requests exactly like the legacy ``sorted(key=(arrival_ns, model,
  tenant))`` + renumber, even when arrival times repeat across models
  and tenants.
* **Build count.**  A single-model untagged run and a two-tenant run each
  construct exactly one :class:`Request` per offered request.
"""

import dataclasses
import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.tenancy as tenancy
import repro.serve.traces as traces
from repro.serve import (
    TRACE_KINDS,
    Request,
    TenancyConfig,
    Tenant,
    fixed_trace,
    make_trace,
    merge_traces,
    sample_seqlens,
    simulate_serving,
    tenant_traces,
)

# -- frozen scalar generators (the reference stream layout) ---------------------------


def _oracle_poisson(rps, duration_s, seed) -> List[float]:
    rng = np.random.default_rng(seed)
    horizon_ns = duration_s * 1e9
    mean_gap_ns = 1e9 / rps
    arrivals = []
    t = rng.exponential(mean_gap_ns)
    while t < horizon_ns:
        arrivals.append(t)
        t += rng.exponential(mean_gap_ns)
    return arrivals


def _oracle_bursty(rps, duration_s, seed, burstiness=0.8, mean_dwell_s=0.01):
    rng = np.random.default_rng(seed)
    horizon_ns = duration_s * 1e9
    dwell_ns = mean_dwell_s * 1e9
    rates = (rps * (1.0 + burstiness), rps * (1.0 - burstiness))
    arrivals = []
    t = 0.0
    state = 0
    while t < horizon_ns:
        phase_end = min(horizon_ns, t + rng.exponential(dwell_ns))
        rate = rates[state]
        if rate > 0.0:
            gap_ns = 1e9 / rate
            t += rng.exponential(gap_ns)
            while t < phase_end:
                arrivals.append(t)
                t += rng.exponential(gap_ns)
        t = phase_end
        state = 1 - state
    return arrivals


def _oracle_diurnal(rps, duration_s, seed, amplitude=0.5, period_s=0.1, phase=0.0):
    rng = np.random.default_rng(seed)
    horizon_ns = duration_s * 1e9
    peak = rps * (1.0 + amplitude)
    gap_ns = 1e9 / peak
    phase_rad = 2.0 * math.pi * phase
    arrivals = []
    t = rng.exponential(gap_ns)
    while t < horizon_ns:
        rate = rps * (
            1.0
            + amplitude
            * math.sin(2.0 * math.pi * t / (period_s * 1e9) + phase_rad)
        )
        if rng.random() <= rate / peak:
            arrivals.append(t)
        t += rng.exponential(gap_ns)
    return arrivals


def _oracle_uniform(rps, duration_s, seed) -> List[float]:
    n = round(rps * duration_s)
    gap_ns = 1e9 / rps
    horizon_ns = duration_s * 1e9
    return [min(gap_ns * (i + 1), horizon_ns) for i in range(n)]


_ORACLES = {
    "poisson": _oracle_poisson,
    "bursty": _oracle_bursty,
    "diurnal": _oracle_diurnal,
    "uniform": _oracle_uniform,
}


def _legacy_merge(*parts):
    """The pre-single-pass merge: stable sort by key, then renumber."""
    merged = sorted(
        (req for part in parts for req in part),
        key=lambda r: (r.arrival_ns, r.model, r.tenant),
    )
    return tuple(
        dataclasses.replace(req, request_id=i) for i, req in enumerate(merged)
    )


# -- stream layout ---------------------------------------------------------------------


class TestStreamLayout:
    def test_oracles_cover_every_kind(self):
        assert set(_ORACLES) == set(TRACE_KINDS)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    @pytest.mark.parametrize("rps, duration_s", [(3.0, 0.5), (2000.0, 0.05)])
    def test_make_trace_matches_scalar_loop(self, kind, rps, duration_s):
        oracle = _ORACLES[kind]
        for seed in range(100):
            trace = make_trace(kind, "m", rps, duration_s, seed=seed)
            expected = oracle(rps, duration_s, seed)
            assert [r.arrival_ns for r in trace] == expected, (kind, seed)
            assert [r.request_id for r in trace] == list(range(len(expected)))

    def test_poisson_across_chunk_boundaries(self):
        rps, duration_s = 50000.0, 0.1  # ~5000 arrivals: two default chunks
        for seed in range(100):
            expected = _oracle_poisson(rps, duration_s, seed)
            assert len(expected) > traces._POISSON_CHUNK
            trace = make_trace("poisson", "m", rps, duration_s, seed=seed)
            assert [r.arrival_ns for r in trace] == expected, seed

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_poisson_chunk_size_never_changes_the_trace(self, monkeypatch, chunk):
        monkeypatch.setattr(traces, "_POISSON_CHUNK", chunk)
        for seed in range(100):
            trace = make_trace("poisson", "m", 2000.0, 0.05, seed=seed)
            assert [r.arrival_ns for r in trace] == _oracle_poisson(
                2000.0, 0.05, seed
            )

    def test_non_default_shapes_match(self):
        for seed in range(100):
            bursty = traces.bursty_trace(
                "m", 5000.0, 0.05, seed, burstiness=0.3, mean_dwell_s=0.002
            )
            assert [r.arrival_ns for r in bursty] == _oracle_bursty(
                5000.0, 0.05, seed, burstiness=0.3, mean_dwell_s=0.002
            )
            diurnal = traces.diurnal_trace(
                "m", 5000.0, 0.05, seed, amplitude=1.0, period_s=0.03, phase=0.3
            )
            assert [r.arrival_ns for r in diurnal] == _oracle_diurnal(
                5000.0, 0.05, seed, amplitude=1.0, period_s=0.03, phase=0.3
            )


# -- tie-breaks ------------------------------------------------------------------------

#: A handful of arrival instants, so draws collide across lanes.
_TIMES = st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]), max_size=6)
_LANES = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),  # model
        st.sampled_from(["", "t0", "t1"]),  # tenant
        _TIMES,
    ),
    min_size=1,
    max_size=6,
)


def _tagged(model, tenant, times):
    return tuple(
        dataclasses.replace(r, tenant=tenant) for r in fixed_trace(model, times)
    )


class TestTieBreaks:
    @given(lanes=_LANES)
    @settings(max_examples=200, deadline=None)
    def test_merge_matches_legacy_sort(self, lanes):
        parts = [_tagged(*lane) for lane in lanes]
        assert merge_traces(*parts) == _legacy_merge(*parts)

    def test_repeated_times_cover_models_and_tenants(self):
        parts = [
            _tagged("b", "t1", [1.0, 1.0]),
            _tagged("a", "t1", [1.0]),
            _tagged("b", "t0", [1.0]),
            _tagged("a", "t0", [1.0]),
        ]
        merged = merge_traces(*parts)
        assert merged == _legacy_merge(*parts)
        assert [(r.model, r.tenant) for r in merged] == [
            ("a", "t0"), ("a", "t1"), ("b", "t0"), ("b", "t1"), ("b", "t1"),
        ]

    def test_single_trace_out_of_order_or_misnumbered_is_rebuilt(self):
        unordered = (
            Request(0, "b", 5.0),
            Request(1, "a", 5.0),
            Request(2, "a", 1.0),
        )
        assert merge_traces(unordered) == _legacy_merge(unordered)
        misnumbered = (Request(3, "a", 1.0), Request(7, "a", 2.0))
        assert merge_traces(misnumbered) == _legacy_merge(misnumbered)

    def test_single_merged_trace_is_returned_as_is(self):
        trace = make_trace("poisson", "m", 2000.0, 0.05, seed=1)
        assert merge_traces(trace) is trace

    @given(
        lanes=st.lists(_TIMES, min_size=4, max_size=4),
        seqlen=st.sampled_from([None, "lognormal", "uniform"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tenant_traces_match_legacy_build(self, lanes, seqlen):
        """Two tenants x two models whose arrival instants collide."""
        config = TenancyConfig(
            tenants=(
                Tenant("t1", seqlen_dist=seqlen, seqlen_mean=16),
                Tenant("t0", seqlen_dist=seqlen, seqlen_mean=16),
            )
        )
        drawn = {}

        def fixed_arrivals(kind, rps, duration_s, seed=0):
            drawn[seed] = sorted(lanes[len(drawn)])
            return list(drawn[seed])

        native = {"a": 0, "b": 128}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tenancy, "arrival_times", fixed_arrivals)
            trace, max_sampled = tenant_traces(
                config, 0.1, seed=3, default_models=("b", "a"),
                native_seq_len=native, max_context=24,
            )

        parts, legacy_max = [], 0
        for t_index, tenant in enumerate(config.tenants):
            base = 3 + tenancy._TENANT_SEED_STRIDE * t_index
            for i, model in enumerate(("b", "a")):
                part = _tagged(model, tenant.name, drawn[base + i])
                if seqlen is not None and native[model] > 0:
                    lens = sample_seqlens(
                        seqlen, len(part), 16,
                        seed=base + tenancy._SEQLEN_SEED_OFFSET + i,
                    )
                    lens = [min(s, 24) for s in lens]
                    legacy_max = max([legacy_max, *lens])
                    part = tuple(
                        dataclasses.replace(r, seq_len=s)
                        for r, s in zip(part, lens)
                    )
                parts.append(part)
        assert trace == _legacy_merge(*parts)
        assert max_sampled == legacy_max


# -- build count -----------------------------------------------------------------------


@pytest.fixture
def build_count(monkeypatch):
    """Counts every Request construction (each one runs __post_init__)."""
    calls = [0]
    validate = Request.__post_init__

    def counting(self):
        calls[0] += 1
        validate(self)

    monkeypatch.setattr(Request, "__post_init__", counting)
    return calls


class TestBuildCount:
    def test_single_model_untagged_run_builds_each_request_once(self, build_count):
        _, result = simulate_serving(
            ["resnet18"], n_chips=2, rps=20000, duration_s=0.02,
            trace_kind="diurnal", seed=0,
        )
        assert result.n_offered > 100
        assert build_count[0] == result.n_offered

    def test_two_tenant_run_builds_each_request_once(self, build_count):
        _, result = simulate_serving(
            ["resnet18", "mobilebert"], n_chips=2, duration_s=0.02, seed=0,
            tenants="chat:interactive:poisson@4000:seqlen=lognormal,"
            "bulk:batch:bursty@8000",
        )
        assert result.n_offered > 100
        assert build_count[0] == result.n_offered

    def test_validation_still_runs_on_every_build(self):
        with pytest.raises(ValueError, match="non-negative"):
            fixed_trace("m", [1.0, -2.0])
        with pytest.raises(ValueError, match="non-empty"):
            traces.build_trace([traces.Lane("", [1.0])])
