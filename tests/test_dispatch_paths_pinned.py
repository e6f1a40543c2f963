"""Pinned digests of the feature x routing paths no golden file covers.

The golden differentials (``test_hetero_differential`` and the suites
that import it) pin plain, tenancy-degenerate and no-op-layer runs under
the default ``fastest`` routing.  They never run decode under
``round-robin`` or ``cheapest-energy``, decode under a binding power
cap, or ``round-robin`` with tenants or an elastic fleet.  Each scenario
below runs one of those paths end to end through ``simulate_serving``
and compares three sha256 digests with
``tests/data/pinned_dispatch_paths.json``:

* ``served`` — every served record, floats via ``repr`` (full precision),
  decode fields included;
* ``result`` — per-chip busy time, makespan, batch and decode-iteration
  counts, the rejection and preemption counts and the engine's
  deterministic work counters;
* ``report`` — the ``format_serving`` text.

Regenerate the data file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_dispatch_paths_pinned.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.serve import DecodeConfig, format_serving, simulate_serving

DATA = pathlib.Path(__file__).parent / "data" / "pinned_dispatch_paths.json"

ROUTINGS = ("fastest", "cheapest-energy", "round-robin")

_DECODE = dict(
    models=("mobilebert",),
    fleet="yoco:2,isaac:2",
    rps=4000.0,
    duration_s=0.03,
    seqlen_dist="lognormal",
    decode=DecodeConfig(dist="lognormal", mean_tokens=8),
)
_TENANTS = dict(
    models=("resnet18", "mobilebert"),
    fleet="yoco:2,isaac:2",
    duration_s=0.03,
    tenants="chat:interactive:w=4:poisson@3000,bulk:batch:poisson@12000",
    scheduler="weighted-fair",
)
_ELASTIC = dict(
    models=("resnet18", "alexnet"),
    fleet="yoco:3,isaac:3",
    rps=20000.0,
    duration_s=0.03,
    trace_kind="diurnal",
    elastic="2:6",
)

#: scenario -> simulate_serving kwargs (seed 0 throughout).
SCENARIOS = {
    **{
        f"decode-{placement}-{routing}": dict(
            _DECODE, placement=placement, routing=routing
        )
        for placement in ("replicated", "prefill-decode")
        for routing in ROUTINGS
    },
    "decode-prefill-decode-power-cap": dict(
        _DECODE,
        placement="prefill-decode",
        routing="cheapest-energy",
        power_cap_w=0.5,
    ),
    **{
        f"tenants-weighted-fair-{routing}": dict(_TENANTS, routing=routing)
        for routing in ROUTINGS
    },
    **{
        f"elastic-diurnal-{routing}": dict(_ELASTIC, routing=routing)
        for routing in ROUTINGS
    },
    "tenants-preemption": dict(
        models=("resnet18",),
        n_chips=2,
        duration_s=0.03,
        tenants=(
            "chat:interactive:poisson@2000:deadline=0.08,"
            "bulk:batch:poisson@60000"
        ),
        scheduler="strict-priority",
        preemption=True,
    ),
    "clients-queue-cap-retries": dict(
        models=("resnet18",),
        n_chips=2,
        duration_s=0.03,
        clients=64,
        think_time_ms=0.5,
        retry=3,
        admission="queue-cap:16",
    ),
    "plain-multi-model": dict(
        models=("resnet18", "alexnet"),
        n_chips=4,
        rps=20000.0,
        duration_s=0.03,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(kwargs) -> dict:
    """The three digests of one scenario run."""
    kwargs = dict(kwargs)
    report, result = simulate_serving(kwargs.pop("models"), seed=0, **kwargs)
    served = "\n".join(
        f"{s.request.request_id} {s.request.model} {s.request.tenant} "
        f"{s.request.arrival_ns!r} {s.chip_id} {s.batch_size} "
        f"{s.dispatch_ns!r} {s.finish_ns!r} {s.energy_pj!r} "
        f"{s.seq_len} {s.padded_seq_len} {s.decode_tokens} "
        f"{s.first_token_ns!r} {s.kv_bytes!r} {s.kv_overflow_bytes!r}"
        for s in result.served
    )
    stats = result.stats
    totals = "\n".join(
        (
            " ".join(repr(b) for b in result.chip_busy_ns),
            repr(result.makespan_ns),
            f"batches={result.n_batches} decode_iters={result.n_decode_iters}",
            f"rejections={result.n_rejections} dropped={result.n_dropped}",
            f"preemptions={result.n_preemptions}",
            f"events={stats.n_events} rounds={stats.n_dispatch_rounds} "
            f"scans={stats.n_slot_scans}",
        )
    )
    return {
        "served": _sha(served),
        "result": _sha(totals),
        "report": _sha(format_serving(report)),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_every_scenario_is_pinned(pinned):
    assert sorted(pinned) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_matches_pinned_digests(scenario, pinned):
    assert digests(SCENARIOS[scenario]) == pinned[scenario]


@pytest.mark.parametrize(
    "scenario, counter",
    [
        ("decode-prefill-decode-round-robin", "n_decode_iters"),
        ("tenants-preemption", "n_preemptions"),
        ("clients-queue-cap-retries", "n_retries"),
    ],
)
def test_scenario_exercises_its_feature(scenario, counter):
    """Each feature scenario really takes the path it is named after."""
    kwargs = dict(SCENARIOS[scenario])
    _, result = simulate_serving(kwargs.pop("models"), seed=0, **kwargs)
    assert getattr(result, counter) > 0


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {name: digests(kw) for name, kw in sorted(SCENARIOS.items())},
            indent=2,
        )
        + "\n"
    )
