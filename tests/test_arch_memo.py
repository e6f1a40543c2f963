"""The simulator's per-shape memo never changes a result.

:class:`ArchitectureSimulator` costs each distinct layer shape once per
instance and reuses the terms for every later layer of that shape, in any
workload.  This sweep pins that down for every benchmark model on every
registered chip type under both weight residencies, at the native shape,
at two re-derived sequence lengths and at two decode contexts:

* a simulator warmed by every call of its chip type, in shuffled order,
  returns exactly (``==``) what a fresh simulator returns for one case;
* every float of every case matches a golden digest (``repr`` of each
  result object) captured before the memo existed.

Regenerate the golden digest from a checkout with::

    PYTHONPATH=src python tests/test_arch_memo.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.arch.simulator import ArchitectureSimulator
from repro.models.workload import ModelKind, at_decode_step, at_seq_len
from repro.models.zoo import BENCHMARK_MODELS, get_workload
from repro.serve.fleet import CHIP_TYPES

GOLDEN = Path(__file__).parent / "data" / "golden_arch_memo.json"

SEQ_LENS = (64, 300)
DECODE_CONTEXTS = (1, 257)
BATCH_SIZES = tuple(range(1, 9))
RESIDENCIES = (True, False)


def _shapes():
    """(model, shape label, workload) for every swept workload shape."""
    shapes = []
    for model in BENCHMARK_MODELS:
        native = get_workload(model)
        shapes.append((model, "native", native))
        if native.kind != ModelKind.TRANSFORMER:
            continue
        for seq in SEQ_LENS:
            shapes.append((model, f"seq{seq}", at_seq_len(native, seq)))
        for ctx in DECODE_CONTEXTS:
            shapes.append((model, f"decode{ctx}", at_decode_step(native, ctx)))
    return shapes


SHAPES = _shapes()


def _simulate_layers(sim, workload):
    """``simulate_layer`` on every layer, plain and as an overflow replica."""
    replicas = sim.replication_budget(workload)
    return tuple(
        (
            sim.simulate_layer(layer),
            sim.simulate_layer(layer, static_overflow=True, max_replicas=replicas),
        )
        for layer in workload.layers
    )


CALLS = (
    ("run", lambda sim, w: sim.run(w)),
    *(
        (f"batch{b}", lambda sim, w, b=b: sim.run_batch(w, b))
        for b in BATCH_SIZES
    ),
    ("pipelined", lambda sim, w: sim.run_layer_pipelined(w)),
    ("layers", _simulate_layers),
)


def _new_sim(chip, resident):
    return ArchitectureSimulator(CHIP_TYPES[chip](), weights_resident=resident)


def _case_key(chip, resident, model, label):
    return f"{chip}/{'resident' if resident else 'streamed'}/{model}/{label}"


def _fresh_results(chip, resident):
    """Each case's call results, each case on its own fresh simulator."""
    results = {}
    for model, label, workload in SHAPES:
        sim = _new_sim(chip, resident)
        for name, call in CALLS:
            results[(model, label, name)] = call(sim, workload)
    return results


def _digest(results, model, label):
    text = "\n".join(repr(results[(model, label, name)]) for name, _ in CALLS)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _all_digests():
    digests = {}
    for chip in CHIP_TYPES:
        for resident in RESIDENCIES:
            results = _fresh_results(chip, resident)
            for model, label, _ in SHAPES:
                key = _case_key(chip, resident, model, label)
                digests[key] = _digest(results, model, label)
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("resident", RESIDENCIES, ids=["resident", "streamed"])
@pytest.mark.parametrize("chip", sorted(CHIP_TYPES))
def test_memo_matches_fresh_and_golden(chip, resident, golden):
    fresh = _fresh_results(chip, resident)

    # One simulator serves every case of this chip type in shuffled order,
    # so each shape is looked up under every workload that contains it.
    jobs = [
        (model, label, workload, name, call)
        for model, label, workload in SHAPES
        for name, call in CALLS
    ]
    random.Random(f"{chip}/{resident}").shuffle(jobs)
    warm_sim = _new_sim(chip, resident)
    for model, label, workload, name, call in jobs:
        assert call(warm_sim, workload) == fresh[(model, label, name)], (
            model, label, name,
        )

    for model, label, _ in SHAPES:
        key = _case_key(chip, resident, model, label)
        assert _digest(fresh, model, label) == golden[key], key


def test_golden_covers_the_sweep(golden):
    expected = {
        _case_key(chip, resident, model, label)
        for chip in CHIP_TYPES
        for resident in RESIDENCIES
        for model, label, _ in SHAPES
    }
    assert set(golden) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
