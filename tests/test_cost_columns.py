"""The serving cluster's column cost path equals the object path.

:meth:`Cluster.service` and :meth:`Cluster.decode_service` price batches
through :meth:`ArchitectureSimulator.batch_cost`, which rolls up memoized
NumPy layer columns and, for decode, derives each model's step once and
re-costs only its attention rows per context.  Each cost row must equal,
with exact ``==``, what a fresh simulator's ``run_batch`` reports on the
workload re-derived the object way (:func:`at_seq_len`,
:func:`at_decode_step`).  The sweep covers every benchmark transformer on
every registered chip type, on three chip layouts:

* ``resident`` — the model alone on a chip that holds its weights;
* ``streamed`` — the model alone on a chip holding half its weights, so
  layers overflow and stream off-chip (``weights_resident=False``);
* ``shared`` — two co-resident models that fit together, so each one's
  replication budget comes from half the capacity.
"""

import dataclasses

import pytest

import repro.arch.simulator as simulator
import repro.serve.cluster as cluster_module
from repro.arch.simulator import ArchitectureSimulator
from repro.models.workload import (
    WorkloadSpec,
    at_decode_step,
    at_seq_len,
    decode_layer_at,
)
from repro.models.zoo import TRANSFORMER_MODELS, get_workload
from repro.serve.cluster import Cluster
from repro.serve.fleet import CHIP_TYPES, FleetGroup, FleetSpec

BATCH_SIZES = tuple(range(1, 9))
LAYOUTS = ("resident", "streamed", "shared")
#: The co-resident partner of every swept model in the ``shared`` layout.
PARTNER = "resnet18"


def _contexts(native):
    return (1, 15, 16, 17, native.seq_len, 4 * native.seq_len)


def _seq_buckets(native):
    return (17, 2 * native.seq_len)


def _layout(chip, model, layout):
    """(cluster, chip spec a fresh simulator must use, weights resident)."""
    spec = CHIP_TYPES[chip]()
    native = get_workload(model)
    workloads = [native]
    if layout == "resident":
        capacity = max(spec.weight_capacity_bytes, native.total_weight_bytes)
    elif layout == "streamed":
        capacity = native.total_weight_bytes // 2
    else:
        workloads.append(get_workload(PARTNER))
        capacity = max(
            spec.weight_capacity_bytes,
            sum(w.total_weight_bytes for w in workloads),
        )
    spec = dataclasses.replace(spec, weight_capacity_bytes=capacity)
    group = FleetGroup(chip_type=chip, n_chips=1, spec=spec, name=chip)
    cluster = Cluster(workloads, fleet=FleetSpec((group,)))
    fits = layout != "streamed"
    assert cluster.plan.chips[0].fits is fits
    if layout == "shared":
        spec = dataclasses.replace(spec, weight_capacity_bytes=capacity // 2)
    return cluster, spec, fits


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("chip", sorted(CHIP_TYPES))
@pytest.mark.parametrize("model", TRANSFORMER_MODELS)
def test_columns_equal_run_batch(model, chip, layout):
    cluster, spec, resident = _layout(chip, model, layout)
    reference = ArchitectureSimulator(spec, weights_resident=resident)
    native = get_workload(model)
    if layout == "streamed":
        assert reference.overflow_layers(native)
    for ctx in _contexts(native):
        step = at_decode_step(native, ctx)
        for batch in BATCH_SIZES:
            expected = reference.run_batch(step, batch)
            got = cluster.decode_service(0, model, batch, ctx)
            assert (got.latency_ns, got.energy_pj) == (
                expected.latency_ns, expected.energy_pj,
            ), (ctx, batch)
    for seq in _seq_buckets(native):
        workload = at_seq_len(native, seq)
        for batch in BATCH_SIZES:
            expected = reference.run_batch(workload, batch)
            got = cluster.service(0, model, batch, seq)
            assert (got.latency_ns, got.energy_pj) == (
                expected.latency_ns, expected.energy_pj,
            ), (seq, batch)


def test_decode_layer_at_moves_a_step_like_at_decode_step():
    for model in TRANSFORMER_MODELS:
        native = get_workload(model)
        step = at_decode_step(native, 16)
        for ctx in _contexts(native):
            moved = tuple(decode_layer_at(layer, ctx) for layer in step.layers)
            assert moved == at_decode_step(native, ctx).layers, (model, ctx)
        with pytest.raises(ValueError):
            decode_layer_at(step.layers[0], 0)


def test_decode_miss_builds_no_workload_or_result_objects(monkeypatch):
    """A cold decode row derives the step once per model, then builds no
    :class:`WorkloadSpec`, :class:`RunResult` or :class:`LayerResult`."""
    cluster = Cluster(
        [get_workload("mobilebert"), get_workload("vit")], fleet="yoco:1,isaac:1"
    )
    derived = []
    real_step = cluster_module.at_decode_step

    def counting_step(workload, ctx):
        derived.append(workload.name)
        return real_step(workload, ctx)

    monkeypatch.setattr(cluster_module, "at_decode_step", counting_step)
    for model in ("mobilebert", "vit"):
        cluster.decode_service(0, model, 1, 16)  # derives the step
    built = []
    post_init = WorkloadSpec.__post_init__

    def counting_post_init(self):
        built.append(self.name)
        post_init(self)

    def refuse(*args, **kwargs):
        raise AssertionError("cost path built a result object")

    monkeypatch.setattr(WorkloadSpec, "__post_init__", counting_post_init)
    monkeypatch.setattr(simulator, "RunResult", refuse)
    monkeypatch.setattr(simulator, "LayerResult", refuse)
    for model in ("mobilebert", "vit"):
        for chip in (0, 1):
            for ctx in (16, 32, 48, 512):
                for batch in (1, 2, 8):
                    cluster.decode_service(chip, model, batch, ctx)
    assert derived == ["mobilebert", "vit"]
    assert built == []


def test_batch_cost_rejects_inexact_wave_counts():
    sim = ArchitectureSimulator()
    workload = get_workload("llama3_7b")
    vmm_max = max(layer.vmm_count for layer in sim.run(workload).layers)
    with pytest.raises(ValueError, match="exact"):
        sim.batch_cost(workload, 2**53 // vmm_max + 1)
    with pytest.raises(ValueError, match="batch_size"):
        sim.batch_cost(workload, 0)
