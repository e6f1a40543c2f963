"""Result records of the architecture simulation."""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Dict, Iterable, List

from repro.energy.units import tops, tops_per_watt


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` strictly left to right, like ``sum()`` before 3.12.

    Every float roll-up of the architecture model adds its layer terms in
    layer order, the order the simulator's cost columns use
    (``np.cumsum(...)[-1]``).  Since Python 3.12 the builtin ``sum()``
    compensates float rounding, so on 3.12 it would differ from those
    columns in the last bits and break the exact ``run_batch(w, 1) ==
    run(w)`` contract.
    """
    return functools.reduce(operator.add, values, 0)


@dataclasses.dataclass(frozen=True)
class LayerResult:
    """Cost roll-up of one layer on one accelerator."""

    layer_name: str
    vmm_count: int
    compute_energy_pj: float
    weight_write_energy_pj: float
    data_movement_energy_pj: float
    compute_latency_ns: float
    data_latency_ns: float
    utilization: float  # active-MAC fraction of the occupied compute grain

    @property
    def energy_pj(self) -> float:
        return (
            self.compute_energy_pj
            + self.weight_write_energy_pj
            + self.data_movement_energy_pj
        )

    @property
    def latency_ns(self) -> float:
        """Layer latency with compute/data overlap (double buffering)."""
        return max(self.compute_latency_ns, self.data_latency_ns)


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Whole-network cost roll-up of one accelerator."""

    accelerator: str
    workload: str
    total_ops: int
    layers: "tuple[LayerResult, ...]"

    @property
    def energy_pj(self) -> float:
        return ordered_sum(layer.energy_pj for layer in self.layers)

    @property
    def latency_ns(self) -> float:
        return ordered_sum(layer.latency_ns for layer in self.layers)

    @property
    def energy_j(self) -> float:
        return self.energy_pj * 1e-12

    @property
    def latency_s(self) -> float:
        return self.latency_ns * 1e-9

    @property
    def throughput_tops(self) -> float:
        """Achieved ops/s over the whole inference."""
        return tops(self.total_ops, self.latency_s)

    @property
    def efficiency_tops_per_watt(self) -> float:
        """Achieved ops/J over the whole inference."""
        return tops_per_watt(self.total_ops, self.energy_j)

    @property
    def inferences_per_second(self) -> float:
        return 1.0 / self.latency_s

    def energy_breakdown_pj(self) -> Dict[str, float]:
        """Energy grouped by cost category."""
        return {
            "compute": ordered_sum(l.compute_energy_pj for l in self.layers),
            "weight_writes": ordered_sum(
                l.weight_write_energy_pj for l in self.layers
            ),
            "data_movement": ordered_sum(
                l.data_movement_energy_pj for l in self.layers
            ),
        }

    def mean_utilization(self) -> float:
        """VMM-weighted mean compute utilization."""
        total_vmms = sum(l.vmm_count for l in self.layers)
        if total_vmms == 0:
            return 0.0
        return ordered_sum(
            l.utilization * l.vmm_count for l in self.layers
        ) / total_vmms


def geometric_mean(values: List[float]) -> float:
    """Geometric mean (the paper's summary statistic in Figs. 8/10)."""
    if not values:
        raise ValueError("cannot take the geometric mean of nothing")
    if any(v <= 0.0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))
