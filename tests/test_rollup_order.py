"""Every architecture roll-up adds its layer terms left to right.

The batched cost columns sum in layer order (``np.cumsum(...)[-1]``), so
every object roll-up must add in that same order for ``run_batch(w, 1) ==
run(w)`` to stay exact.  The builtin ``sum()`` compensates float rounding
since Python 3.12 and would break that on 3.12 only; this sweep checks
each roll-up against an explicit ``functools.reduce(operator.add, ...)``
so it holds on every interpreter version, for every zoo model on every
registered chip type under both weight residencies.
"""

import functools
import math
import operator

import pytest

from repro.arch.simulator import ArchitectureSimulator
from repro.models.zoo import BENCHMARK_MODELS, get_workload
from repro.serve.fleet import CHIP_TYPES

BATCH_SIZES = (1, 3, 8)


def _left_to_right(values):
    return functools.reduce(operator.add, values)


def _batch_reference(sim, workload, batch_size):
    """``run_batch``'s formula in plain Python, one layer at a time."""
    spec = sim.spec
    overflow = sim.overflow_layers(workload)
    replicas = sim.replication_budget(workload)
    latencies, energies = [], []
    for layer in workload.layers:
        t = sim._layer_terms(layer, layer.name in overflow, replicas)
        waves = math.ceil(batch_size * t.vmm_count / t.effective_units)
        compute_ns = (
            waves * spec.unit_vmm_latency_ns
            + batch_size * t.dynamic_rows * spec.dynamic_write_ns_per_row
        )
        latencies.append(max(compute_ns, t.data_latency_ns))
        energies.append(batch_size * t.energy_pj - (batch_size - 1) * t.offchip_pj)
    return _left_to_right(latencies), _left_to_right(energies)


@pytest.mark.parametrize("resident", (True, False), ids=("resident", "streamed"))
@pytest.mark.parametrize("chip", sorted(CHIP_TYPES))
@pytest.mark.parametrize("model", BENCHMARK_MODELS)
def test_rollups_add_left_to_right(model, chip, resident):
    sim = ArchitectureSimulator(CHIP_TYPES[chip](), weights_resident=resident)
    workload = get_workload(model)
    run = sim.run(workload)
    layers = run.layers
    assert run.energy_pj == _left_to_right(l.energy_pj for l in layers)
    assert run.latency_ns == _left_to_right(l.latency_ns for l in layers)
    assert run.energy_breakdown_pj() == {
        "compute": _left_to_right(l.compute_energy_pj for l in layers),
        "weight_writes": _left_to_right(l.weight_write_energy_pj for l in layers),
        "data_movement": _left_to_right(l.data_movement_energy_pj for l in layers),
    }
    for batch_size in BATCH_SIZES:
        batch = sim.run_batch(workload, batch_size)
        assert (batch.latency_ns, batch.energy_pj) == _batch_reference(
            sim, workload, batch_size
        ), batch_size
        assert sim.batch_cost(workload, batch_size) == (
            batch.latency_ns, batch.energy_pj,
        )
    overflow = sim.overflow_layers(workload)
    single = [
        sim.simulate_layer(layer, layer.name in overflow, max_replicas=1)
        for layer in workload.layers
    ]
    stream = sim.run_layer_pipelined(workload)
    stream_ns = _left_to_right(l.data_latency_ns for l in layers)
    assert stream.fill_ns == (
        _left_to_right(l.compute_latency_ns for l in single) + stream_ns
    )
