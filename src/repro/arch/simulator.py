"""Architecture simulator: workload specs -> energy / latency roll-ups,
plus ISAAC-style inter-layer pipelining for streaming inference.

The timeloop/accelergy stand-in.  For each layer the simulator combines the
mapper's plan with the accelerator's cost coefficients:

* **compute** — unit-VMM count x per-VMM energy, scaled by the active
  fraction when the design power-gates partial tiles;
* **weight writes** — dynamic operands (attention K/Q/V) are programmed
  into units every inference at the design's write cost; static weights are
  programmed once and amortized away (all designs), but static weights
  *beyond* the on-chip capacity stream from off-chip every inference;
* **data movement** — input/output activations through eDRAM-class
  buffers, inter-tile traffic over the NoC;
* **latency** — VMM issue over the unit pool, overlapped (double-buffered)
  with data movement; dynamic-write latency serialises with compute for
  designs whose compute cells must be reprogrammed mid-inference.

The request-level serving simulator (:mod:`repro.serve`) builds on this
module and consumes exactly three outputs, which form the contract between
the two layers:

* :meth:`ArchitectureSimulator.run` — the batch-1 energy/latency roll-up;
  a serving batch of one request must cost exactly this much
  (``run_batch(w, 1)`` equals ``run(w)`` by construction);
* :meth:`ArchitectureSimulator.run_batch` — service time and energy of a
  size-``B`` batch: waves amortize over the unit pool (sub-linear latency)
  while energy stays linear in ``B`` (every request moves its own
  activations and programs its own dynamic operands).  The cluster reads
  only those two floats, through :meth:`ArchitectureSimulator.batch_cost`;
* :meth:`ArchitectureSimulator.run_layer_pipelined` — the streaming mode;
  the serving cluster models a pipelined chip as ``fill_ns`` for the first
  request of a batch plus ``interval_ns`` for each subsequent one.

:meth:`ArchitectureSimulator.replication_budget` and
:meth:`ArchitectureSimulator.overflow_layers` are the public capacity hooks
the cluster planner uses for capacity-aware placement.

``batch_cost`` returns ``run_batch``'s ``(latency_ns, energy_pj)``
without building a :class:`RunResult`, and ``run_batch`` takes its two
floats from it, so the batched formula exists once.  For decode,
``batch_cost`` also takes a KV context: given one decode step of a model,
it re-costs only the attention rows, whose shape follows the context
(:func:`repro.models.workload.decode_layer_at`).

Every roll-up reads one per-layer cost formula,
``ArchitectureSimulator._layer_terms``, memoized per simulator instance
on the layer's *shape* — ``(m, k, n, repeat, static_weights,
static_overflow, effective replicas)``.  The layer's name and kind never
enter the cost, so a transformer's repeated blocks are mapped and costed
once; later layers and later calls (other batch sizes, other workloads of
the same chip) reuse the terms.  That memo feeds a second one: for each
workload (keyed by identity, holding a reference so the key stays valid)
the layer terms become NumPy rows in layer order, and ``batch_cost`` is a
handful of vector expressions over them.  Both memos live exactly as long
as the simulator and are filled cold by each new one.

There is one roll-up order: layer order, left to right.  The columns sum
with ``np.cumsum(...)[-1]``, which adds sequentially; ``np.sum`` adds
pairwise and would change the last bits.  The object roll-ups
(:class:`RunResult`, the pipelined fill) add with
:func:`repro.arch.result.ordered_sum`, not the builtin ``sum()``, which
compensates rounding since Python 3.12.  Each layer yields the same
floats on every path and every path adds them in the same order, so
``run_batch(w, 1) == run(w)`` holds exactly and the contract outputs are
bit-identical to costing every layer afresh.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorSpec, yoco_spec
from repro.arch.mapper import map_layer
from repro.arch.result import LayerResult, RunResult, ordered_sum
from repro.models.workload import LayerSpec, WorkloadSpec, decode_layer_at

#: Integers float64 holds exactly: the cost columns store VMM counts as
#: floats, and ``np.ceil(B * vmm / units)`` equals the integer ceiling only
#: while ``B * vmm`` stays below this.
_EXACT_INT = 2**53


class _LayerTerms(NamedTuple):
    """The name-free cost of one layer shape on one simulator.

    The first seven fields are :class:`LayerResult`'s, in its order; the
    rest are what the batched and streaming roll-ups add on top.
    """

    vmm_count: int
    compute_energy_pj: float
    weight_write_energy_pj: float
    data_movement_energy_pj: float
    compute_latency_ns: float
    data_latency_ns: float
    utilization: float
    tiles_per_instance: int
    effective_units: int  # units holding a copy of the tiles (<= n_units)
    dynamic_rows: int  # rows programmed per inference (0 for static weights)
    offchip_pj: float  # overflow weight-stream energy (0 when on-chip)
    energy_pj: float  # LayerResult.energy_pj, summed in the same order

    def result(self, name: str) -> LayerResult:
        return LayerResult(name, *self[:7])

    def column(self) -> Tuple[float, float, float, float, float, float]:
        """This layer's entries of the :class:`_Columns` table, in row order."""
        return (
            self.vmm_count, self.effective_units, self.dynamic_rows,
            self.data_latency_ns, self.energy_pj, self.offchip_pj,
        )


class _Columns:
    """One workload's layer terms as NumPy rows, in layer order.

    ``table`` has one row per :meth:`_LayerTerms.column` entry (VMM count,
    effective units, dynamic rows, data latency, energy, off-chip energy)
    and one column per layer; the batched roll-up reads nothing else.
    ``terms``, ``overflow`` and ``replicas`` are what the object roll-ups
    and the decode re-costing need.  Holding ``workload`` keeps its ``id``
    (the memo key) from being reused while this entry lives.
    """

    __slots__ = (
        "workload", "terms", "overflow", "replicas", "table", "_groups",
        "contexts",
    )

    def __init__(
        self,
        workload: WorkloadSpec,
        terms: "tuple[_LayerTerms, ...]",
        overflow: "set[str]",
        replicas: int,
    ) -> None:
        self.workload = workload
        self.terms = terms
        self.overflow = overflow
        self.replicas = replicas
        self.table = np.array([t.column() for t in terms], dtype=np.float64).T
        self._groups: "Optional[List[Tuple[LayerSpec, bool, np.ndarray]]]" = None
        # Decode contexts of this step: context -> table.
        self.contexts: Dict[int, np.ndarray] = {}

    def groups(self) -> "List[Tuple[LayerSpec, bool, np.ndarray]]":
        """Layers that cost alike: (first layer, overflow flag, indices).

        Two layers share a group when their kind, shape and overflow flag
        agree, so any shape rule keyed on the kind moves them together.
        """
        if self._groups is None:
            found: Dict[tuple, Tuple[LayerSpec, bool, List[int]]] = {}
            for i, layer in enumerate(self.workload.layers):
                overflow = layer.name in self.overflow
                key = (
                    layer.kind, layer.gemm, layer.repeat,
                    layer.static_weights, overflow,
                )
                found.setdefault(key, (layer, overflow, []))[2].append(i)
            self._groups = [
                (layer, overflow, np.array(rows))
                for layer, overflow, rows in found.values()
            ]
        return self._groups


@dataclasses.dataclass(frozen=True)
class PipelinedRunResult:
    """Streaming (inter-layer pipelined) execution of one workload.

    All layers are resident simultaneously (no weight replication budget);
    inferences stream through, so the steady-state issue interval is the
    slowest layer — scaled up when the layers' combined tile demand
    oversubscribes the unit pool and stages must time-share.
    """

    run: RunResult  # the per-inference (batch-1) roll-up, for energy
    interval_ns: float  # steady-state time between finished inferences
    fill_ns: float  # pipeline fill latency (first inference)
    oversubscription: float  # combined tiles / available units (>= 1)

    @property
    def steady_throughput_tops(self) -> float:
        return self.run.total_ops / (self.interval_ns * 1e-9) / 1e12

    @property
    def steady_inferences_per_second(self) -> float:
        return 1e9 / self.interval_ns

    @property
    def speedup_over_sequential(self) -> float:
        """Streaming gain over running the same resident layers in series.

        ``fill_ns`` *is* the sequential (unreplicated, layer-by-layer) pass,
        so this is the classic sum-over-max pipeline ratio, shrunk by any
        unit oversubscription.  Note that a *replicated* batch-1 execution
        (``ArchitectureSimulator.run``) can beat streaming on models far
        below the weight-capacity limit — replication and layer-pipelining
        compete for the same units.
        """
        return self.fill_ns / self.interval_ns


@dataclasses.dataclass(frozen=True)
class BatchRunResult:
    """Batched (multi-inference) execution of one workload on one chip.

    Latency is sub-linear in batch size: the ``ceil(vmm / units)`` wave
    count amortizes over more work, and — the big win for models beyond
    the on-chip weight capacity — overflow weights stream from off-chip
    *once per batch* and are reused by every inference in it.  Energy is
    linear per inference except for that same off-chip weight traffic.
    Activations and dynamic-operand programming repeat per inference.
    At ``batch_size == 1`` both numbers equal the :class:`RunResult`
    roll-up exactly.
    """

    run: RunResult  # the per-inference (batch-1) roll-up
    batch_size: int
    latency_ns: float  # service time of the whole batch
    energy_pj: float  # energy of the whole batch

    @property
    def energy_per_inference_pj(self) -> float:
        return self.energy_pj / self.batch_size

    @property
    def latency_per_inference_ns(self) -> float:
        return self.latency_ns / self.batch_size

    @property
    def throughput_tops(self) -> float:
        ops = self.run.total_ops * self.batch_size
        return ops / (self.latency_ns * 1e-9) / 1e12

    @property
    def batching_speedup(self) -> float:
        """Per-inference service-time gain over running batch-1 in series."""
        return self.run.latency_ns / self.latency_per_inference_ns


class ArchitectureSimulator:
    """Evaluate workloads on one accelerator model.

    Parameters
    ----------
    spec:
        The accelerator; defaults to YOCO's Table II derivation.
    weights_resident:
        When True (default), static weights are assumed pre-loaded before
        the inference — the timeloop/accelergy methodology the paper uses,
        where each layer is mapped with its weights in place.  When False,
        static weights beyond the on-chip capacity stream over the off-chip
        link every inference (a harsher, deployment-style accounting; see
        the capacity-ablation benchmark).
    """

    def __init__(
        self,
        spec: Optional[AcceleratorSpec] = None,
        weights_resident: bool = True,
    ) -> None:
        self._spec = spec if spec is not None else yoco_spec()
        self._weights_resident = weights_resident
        self._terms: Dict[Tuple[int, int, int, int, bool, bool, int], _LayerTerms] = {}
        self._columns: Dict[int, _Columns] = {}  # id(workload) -> columns

    @property
    def spec(self) -> AcceleratorSpec:
        return self._spec

    @property
    def weights_resident(self) -> bool:
        return self._weights_resident

    # -- per-layer ------------------------------------------------------------------
    def simulate_layer(
        self,
        layer: LayerSpec,
        static_overflow: bool = False,
        max_replicas: int = 1,
    ) -> LayerResult:
        """Cost one layer.

        Parameters
        ----------
        static_overflow:
            True when this layer's static weights did not fit on-chip and
            must stream over the off-chip link each inference.
        max_replicas:
            How many copies of the layer's weight tiles the chip can afford
            to pin (capacity-bounded weight replication for throughput —
            the standard timeloop/ISAAC technique).  Dynamic operands never
            replicate: a copy would have to be written per inference.
        """
        return self._layer_terms(layer, static_overflow, max_replicas).result(layer.name)

    def _layer_terms(
        self, layer: LayerSpec, static_overflow: bool, max_replicas: int
    ) -> _LayerTerms:
        """The one cost formula, memoized per layer shape on this instance."""
        replicas = max(1, max_replicas) if layer.static_weights else 1
        gemm = layer.gemm
        key = (
            gemm.m, gemm.k, gemm.n, layer.repeat,
            layer.static_weights, static_overflow, replicas,
        )
        terms = self._terms.get(key)
        if terms is not None:
            return terms
        spec = self._spec
        plan = map_layer(layer, spec)
        # Compute: unit VMMs, scaled by the active fraction under power
        # gating — which cannot drop below one active array row/column, so
        # the scaling floors at the per-unit minimum granularity.
        per_vmm = spec.unit_vmm_energy_pj
        if spec.power_gating:
            per_vmm = per_vmm * max(plan.active_mac_fraction, 1.0 / 64.0)
        compute = plan.vmm_count * per_vmm
        # Weight writes: static weights are programmed once and amortized
        # over the deployment; dynamic operands are written every inference.
        writes = 0.0
        if not layer.static_weights:
            writes = layer.dynamic_weight_bytes * 8 * spec.dynamic_write_pj_per_bit
        # Data movement: inputs are fetched once per K-tile row and
        # multicast across N-tiles, outputs written once, both through
        # eDRAM + NoC; overflow weights stream over the off-chip link.
        act_bits = layer.input_bytes * 8 + layer.output_bytes * 8
        data = act_bits * (spec.edram_pj_per_bit + spec.noc_pj_per_bit)
        offchip = data_ns = 0.0
        if static_overflow:
            weight_bits = layer.weight_bytes * 8
            offchip = weight_bits * spec.offchip_pj_per_bit
            data += offchip
            data_ns = (weight_bits / 8.0) / spec.offchip_gbps  # bytes / (GB/s) = ns
        # Latency: parallelism is bounded by how many units hold (a copy
        # of) this layer's tiles, never by more units than exist; dynamic
        # operands are programmed before compute, rows of each tile in
        # parallel across units.
        units = min(spec.n_units, plan.tiles_per_instance * replicas)
        rows = 0 if layer.static_weights else min(gemm.k, spec.unit_input_dim)
        terms = self._terms[key] = _LayerTerms(
            vmm_count=plan.vmm_count,
            compute_energy_pj=compute,
            weight_write_energy_pj=writes,
            data_movement_energy_pj=data,
            compute_latency_ns=float(self._compute_ns(plan.vmm_count, units, rows, 1)),
            data_latency_ns=data_ns,
            utilization=plan.utilization,
            tiles_per_instance=plan.tiles_per_instance,
            effective_units=units,
            dynamic_rows=rows,
            offchip_pj=offchip,
            energy_pj=compute + writes + data,
        )
        return terms

    def _compute_ns(self, vmm_count, units, rows, batch_size: int):
        """VMM waves over ``units`` plus per-inference dynamic-row writes.

        Takes scalars (one layer) or the :class:`_Columns` rows (every
        layer at once): ``np.ceil`` of the quotient is the integer wave
        count either way while ``batch_size * vmm_count < 2**53``.
        """
        spec = self._spec
        waves = np.ceil(batch_size * vmm_count / units)
        return (
            waves * spec.unit_vmm_latency_ns
            + batch_size * rows * spec.dynamic_write_ns_per_row
        )

    def _columns_of(self, workload: WorkloadSpec) -> _Columns:
        """The workload's layer terms as columns, memoized per workload."""
        cols = self._columns.get(id(workload))
        if cols is None:
            overflow = self._overflow_layers(workload)
            replicas = self._replication_budget(workload)
            cols = self._columns[id(workload)] = _Columns(
                workload,
                tuple(
                    self._layer_terms(layer, layer.name in overflow, replicas)
                    for layer in workload.layers
                ),
                overflow,
                replicas,
            )
        return cols

    def _at_context(self, cols: _Columns, context_len: int) -> np.ndarray:
        """A decode step's table at another KV context.

        Copies the step's table and re-costs only the layers
        :func:`decode_layer_at` moves (one lookup per attention shape, so
        two per transformer); the other rows, the overflow set and the
        replication budget carry over because a decode step keeps every
        layer name and weight shape.
        """
        table = cols.contexts.get(context_len)
        if table is None:
            table = cols.table.copy()
            for layer, overflow, rows in cols.groups():
                moved = decode_layer_at(layer, context_len)
                if moved is layer:
                    continue
                terms = self._layer_terms(moved, overflow, cols.replicas)
                table[:, rows] = np.array(terms.column())[:, None]
            cols.contexts[context_len] = table
        return table

    def _run_result(self, workload: WorkloadSpec) -> RunResult:
        cols = self._columns_of(workload)
        return RunResult(
            accelerator=self._spec.name,
            workload=workload.name,
            total_ops=workload.total_ops,
            layers=tuple(
                terms.result(layer.name)
                for terms, layer in zip(cols.terms, workload.layers)
            ),
        )

    # -- whole network ----------------------------------------------------------------
    def run(self, workload: WorkloadSpec) -> RunResult:
        """Cost a full inference of one workload."""
        return self._run_result(workload)

    def _replication_budget(self, workload: WorkloadSpec) -> int:
        """Weight copies the chip can pin: floor(capacity / model weights)."""
        weights = workload.total_weight_bytes
        if weights == 0:
            return self._spec.n_units
        return max(1, self._spec.weight_capacity_bytes // weights)

    # -- public capacity hooks (consumed by repro.serve.cluster) -------------------
    def replication_budget(self, workload: WorkloadSpec) -> int:
        """How many weight copies the chip can pin for this workload."""
        return self._replication_budget(workload)

    def overflow_layers(self, workload: WorkloadSpec) -> "set[str]":
        """Layer names whose static weights stream off-chip each inference."""
        return self._overflow_layers(workload)

    # -- batched execution ---------------------------------------------------------
    def run_batch(self, workload: WorkloadSpec, batch_size: int) -> BatchRunResult:
        """Cost a batch of ``batch_size`` inferences run back to back.

        Each layer issues its ``batch_size x vmm_count`` VMMs in waves over
        the same replicated tile set, so partially filled waves amortize;
        activations and dynamic-operand programming repeat per inference.
        Overflow weights (layers past the on-chip capacity under the
        deployment-style accounting) stream from off-chip once per batch
        and serve every inference in it — the weight-reuse effect that
        makes batching pay for LLM-scale models.  ``run_batch(w, 1)``
        reproduces :meth:`run` exactly — the contract the serving engine's
        energy accounting relies on.
        """
        latency, energy = self.batch_cost(workload, batch_size)
        return BatchRunResult(
            run=self._run_result(workload),
            batch_size=batch_size,
            latency_ns=latency,
            energy_pj=energy,
        )

    def batch_cost(
        self, workload: WorkloadSpec, batch_size: int, context_len: int = 0
    ) -> Tuple[float, float]:
        """``(latency_ns, energy_pj)`` of :meth:`run_batch`, without its objects.

        The serving cluster's cost entry: the same floats ``run_batch``
        reports, computed over the memoized layer columns with no
        :class:`RunResult` or :class:`LayerResult` built.

        ``context_len`` > 0 reads ``workload`` as a decode step (an
        :func:`~repro.models.workload.at_decode_step` result at any
        context) and costs it at ``context_len`` instead, exactly as
        ``run_batch(at_decode_step(native, context_len), batch_size)``
        would, while only the attention rows are re-costed.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        cols = self._columns_of(workload)
        table = self._at_context(cols, context_len) if context_len else cols.table
        vmm, units, rows, data_ns, energy, offchip = table
        if batch_size * vmm.max() >= _EXACT_INT:
            raise ValueError(
                f"batch of {batch_size} x {int(vmm.max())} VMMs exceeds the "
                "exact float64 integer range of the cost columns"
            )
        compute_ns = self._compute_ns(vmm, units, rows, batch_size)
        # Layer order, as every roll-up adds: np.cumsum runs left to right
        # where np.sum would add pairwise and change the last bits.
        latency = np.cumsum(np.maximum(compute_ns, data_ns))[-1]
        # Off-chip overflow weights are fetched once and reused
        # batch-wide.  B*e - (B-1)*o, not B*(e-o)+o: algebraically
        # identical, but this form collapses to exactly the layer's
        # energy at B=1, so the run_batch(w, 1) == run(w) contract is
        # exact by construction instead of by floating-point coincidence.
        energy = np.cumsum(batch_size * energy - (batch_size - 1) * offchip)[-1]
        return float(latency), float(energy)

    # -- streaming execution -------------------------------------------------------
    def run_layer_pipelined(self, workload: WorkloadSpec) -> PipelinedRunResult:
        """Stream inferences through all layers concurrently (ISAAC-style).

        Every layer keeps its weights resident and processes inference
        ``i`` while its successor processes ``i-1``; the steady interval is
        the slowest layer's per-inference latency.  When the layers'
        combined tile footprint exceeds the unit pool, stages time-share
        and the interval stretches by the oversubscription factor.

        Under the deployment-style accounting (``weights_resident=False``)
        overflow layers must re-stream their weights over the single
        off-chip link every inference; that serialized traffic bounds the
        steady interval and lengthens the fill.  With the default resident
        methodology no layer carries data latency and nothing changes.
        """
        cols = self._columns_of(workload)
        # Per-layer latency with exactly one copy of each layer resident.
        single = [
            self._layer_terms(layer, layer.name in cols.overflow, 1)
            for layer in workload.layers
        ]
        tiles = sum(terms.tiles_per_instance for terms in single)
        oversubscription = max(1.0, tiles / self._spec.n_units)
        latencies = [terms.compute_latency_ns for terms in single]
        # Off-chip overflow streaming shares one link across all stages, so
        # it serializes: each inference needs the *sum* of the stages'
        # weight-stream times regardless of pipeline overlap.
        stream_ns = ordered_sum(terms.data_latency_ns for terms in cols.terms)
        interval = max(max(latencies) * oversubscription, stream_ns)
        return PipelinedRunResult(
            run=self._run_result(workload),
            interval_ns=interval,
            fill_ns=ordered_sum(latencies) + stream_ns,
            oversubscription=oversubscription,
        )

    def _overflow_layers(self, workload: WorkloadSpec) -> "set[str]":
        """Greedy first-fit of static weights into on-chip capacity.

        Layers that do not fit stream from off-chip each inference — this
        is what makes LLaMA-7B behave differently from the small models.
        Under the default weights-resident methodology no layer overflows.
        """
        if self._weights_resident:
            return set()
        remaining = self._spec.weight_capacity_bytes
        overflow: "set[str]" = set()
        for layer in workload.layers:
            need = layer.weight_bytes
            if need == 0:
                continue
            if need <= remaining:
                remaining -= need
            else:
                overflow.add(layer.name)
        return overflow
