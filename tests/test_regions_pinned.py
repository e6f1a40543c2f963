"""Pinned outputs of single-model multi-region runs.

``simulate_regions`` re-homes over-capacity arrivals between regions and
then serves every region's post-spill trace on its own engine.  Each
scenario below runs that path end to end and compares, against
``tests/data/pinned_regions.json``:

* ``text`` — the ``format_regions`` roll-up, verbatim;
* ``served`` — a sha256 over every region's served records
  ``(request_id, tenant, chip_id, dispatch_ns, finish_ns, energy_pj)``,
  floats via ``repr`` (full precision), regions in spec order.

Regenerate the data file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_regions_pinned.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.serve import ElasticConfig, format_regions, simulate_regions

DATA = pathlib.Path(__file__).parent / "data" / "pinned_regions.json"

_BASE = dict(
    n_regions=3,
    rps=50000.0,
    n_chips=4,
    duration_s=0.05,
    seed=0,
    rtt_ms=1.0,
)

#: scenario -> simulate_regions kwargs (resnet18 throughout).
SCENARIOS = {
    "static": _BASE,
    "elastic-1-4": dict(
        _BASE,
        elastic=ElasticConfig(
            min_chips=1, max_chips=4, provision_delay_ms=2.0
        ),
    ),
    "one-region": dict(_BASE, n_regions=1),
    "rtt-5ms": dict(_BASE, rtt_ms=5.0),
    "spill-threshold-0.7": dict(_BASE, spill_threshold=0.7),
}


def outputs(kwargs) -> dict:
    """The rendered roll-up and the served-records digest of one run."""
    report = simulate_regions(["resnet18"], **kwargs)
    served = "\n".join(
        f"{region.spec.name} {s.request.request_id} {s.request.tenant} "
        f"{s.chip_id} {s.dispatch_ns!r} {s.finish_ns!r} {s.energy_pj!r}"
        for region in report.regions
        for s in region.result.served
    )
    return {
        "text": format_regions(report),
        "served": hashlib.sha256(served.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_every_scenario_is_pinned(pinned):
    assert sorted(pinned) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_matches_pinned_outputs(scenario, pinned):
    assert outputs(SCENARIOS[scenario]) == pinned[scenario]


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {name: outputs(kw) for name, kw in sorted(SCENARIOS.items())},
            indent=2,
        )
        + "\n"
    )
