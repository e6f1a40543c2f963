"""Arrival-trace generators: determinism, rates and shapes."""

import dataclasses
import math

import pytest

from repro.serve import (
    Request,
    bursty_trace,
    diurnal_trace,
    fixed_trace,
    make_trace,
    merge_traces,
    poisson_trace,
    uniform_trace,
)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(request_id=0, model="", arrival_ns=0.0)
        with pytest.raises(ValueError):
            Request(request_id=0, model="resnet18", arrival_ns=-1.0)


class TestPoisson:
    def test_deterministic_for_seed(self):
        a = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=3)
        b = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=3)
        assert a == b

    def test_seed_changes_trace(self):
        a = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=0)
        b = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=1)
        assert a != b

    def test_sorted_and_sequentially_numbered(self):
        trace = poisson_trace("resnet18", rps=2000, duration_s=0.1, seed=0)
        arrivals = [r.arrival_ns for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))

    def test_mean_rate_close(self):
        trace = poisson_trace("resnet18", rps=2000, duration_s=0.5, seed=0)
        assert len(trace) == pytest.approx(1000, rel=0.15)

    def test_invalid_rate_and_duration(self):
        with pytest.raises(ValueError):
            poisson_trace("m", rps=0, duration_s=1.0)
        with pytest.raises(ValueError):
            poisson_trace("m", rps=100, duration_s=0)
        # Non-finite values used to return an empty trace (NaN) or never
        # return at all (inf).
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="rps"):
                poisson_trace("m", rps=bad, duration_s=0.1)
            with pytest.raises(ValueError, match="duration"):
                poisson_trace("m", rps=100, duration_s=bad)

    @pytest.mark.parametrize("kind", ["bursty", "diurnal", "uniform"])
    def test_other_kinds_reject_non_finite(self, kind):
        with pytest.raises(ValueError, match="rps"):
            make_trace(kind, "m", rps=math.nan, duration_s=0.1)
        with pytest.raises(ValueError, match="duration"):
            make_trace(kind, "m", rps=100, duration_s=math.inf)


class TestBursty:
    def test_mean_rate_close(self):
        trace = bursty_trace("resnet18", rps=2000, duration_s=0.5, seed=0)
        assert len(trace) == pytest.approx(1000, rel=0.25)

    def test_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrivals exceeds the
        Poisson value of ~1."""

        def scv(trace):
            gaps = [
                b.arrival_ns - a.arrival_ns for a, b in zip(trace, trace[1:])
            ]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        bursty = bursty_trace(
            "m", rps=2000, duration_s=0.5, seed=0, burstiness=0.9
        )
        poisson = poisson_trace("m", rps=2000, duration_s=0.5, seed=0)
        assert scv(bursty) > scv(poisson) * 1.2

    def test_burstiness_range(self):
        with pytest.raises(ValueError):
            bursty_trace("m", rps=100, duration_s=0.1, burstiness=1.0)


class TestDiurnal:
    def test_deterministic_and_bounded(self):
        a = diurnal_trace("m", rps=1000, duration_s=0.2, seed=5)
        b = diurnal_trace("m", rps=1000, duration_s=0.2, seed=5)
        assert a == b
        assert all(0 <= r.arrival_ns < 0.2e9 for r in a)

    def test_peak_trough_asymmetry(self):
        """First half-period (rate above mean) carries more arrivals than
        the second (rate below mean)."""
        trace = diurnal_trace(
            "m", rps=2000, duration_s=0.1, seed=0, amplitude=0.9, period_s=0.1
        )
        first = sum(1 for r in trace if r.arrival_ns < 0.05e9)
        second = len(trace) - first
        assert first > 1.5 * second

    def test_amplitude_range(self):
        with pytest.raises(ValueError):
            diurnal_trace("m", rps=100, duration_s=0.1, amplitude=1.5)


class TestFixedAndUniform:
    def test_uniform_is_deterministic_grid(self):
        trace = uniform_trace("m", rps=1000, duration_s=0.01)
        assert len(trace) == 10
        gaps = {
            round(b.arrival_ns - a.arrival_ns, 6)
            for a, b in zip(trace, trace[1:])
        }
        assert gaps == {1e6}

    def test_fixed_replays_and_sorts(self):
        trace = fixed_trace("m", [30.0, 10.0, 20.0])
        assert [r.arrival_ns for r in trace] == [10.0, 20.0, 30.0]
        assert [r.request_id for r in trace] == [0, 1, 2]


class TestMergeAndDispatch:
    def test_merge_renumbers_by_time(self):
        a = fixed_trace("a", [10.0, 30.0])
        b = fixed_trace("b", [20.0])
        merged = merge_traces(a, b)
        assert [r.model for r in merged] == ["a", "b", "a"]
        assert [r.request_id for r in merged] == [0, 1, 2]

    def test_merge_of_nothing_is_empty(self):
        assert merge_traces() == ()
        assert merge_traces((), ()) == ()

    def test_make_trace_kinds(self):
        for kind in ("poisson", "bursty", "diurnal", "uniform"):
            trace = make_trace(kind, "m", rps=500, duration_s=0.05, seed=1)
            assert len(trace) > 0
        with pytest.raises(ValueError):
            make_trace("sawtooth", "m", rps=500, duration_s=0.05)

    def test_requests_are_frozen(self):
        trace = uniform_trace("m", rps=100, duration_s=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace[0].arrival_ns = 0.0
