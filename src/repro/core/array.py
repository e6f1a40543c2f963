"""The in-charge computing array: YOCO's "you only charge once" VMM engine.

Implements the four charge-sharing phases of Section III-A in vectorized
behavioral form, with every analog error mechanism of
:class:`~repro.analog.variation.VariationModel` applied at the node where it
physically occurs:

1. **DAC-less input conversion** — each 256-MCC row is grouped 1:1:2:...:128
   by eDAC switches; groups charge to VDD/VSS per input bit and a row-wide
   charge share settles at ``VDD * X / 256``.
2. **Multiplication with a 1-bit weight** — the RWL pulse discharges the
   unit capacitor where the stored bit is 0 and keeps it where it is 1.
3. **Parallel accumulation** — a column-wide charge share averages the 128
   row products.
4. **Weighted summation** — inside each 8-column compute bar, column ``b``
   contributes ``2^b`` unit capacitors to a final multi-column share,
   realising the shift-and-add in situ.

The ideal result of the sequence is

    V_MAC[j] = VDD * sum_i(X[i] * W[i, j]) / (256 * 128 * 255)

which the closed-form :meth:`InChargeArray.ideal_vmm_voltages` exposes for
error analysis.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro import constants
from repro.analog.variation import VariationModel, make_rng
from repro.core.charge import group_index_map
from repro.core.config import ArrayConfig
from repro.core.gemm import exact_int_matmul


@dataclasses.dataclass(frozen=True)
class ArrayDiagnostics:
    """Intermediate node voltages of one VMM (for circuit-level analysis)."""

    input_voltages: np.ndarray  # (rows,) post-phase-1 row voltages
    column_voltages: np.ndarray  # (cols,) post-phase-3 column voltages
    mac_voltages: np.ndarray  # (n_cbs,) post-phase-4 CB outputs


class InChargeArray:
    """A behavioral 128x256 in-charge computing array instance.

    Parameters
    ----------
    config:
        Array geometry and costs; defaults to the paper's Table II array.
    variation:
        Analog error model.  Mismatch maps are sampled once at construction
        (mismatch is static per fabricated instance); per-event noise (kT/C,
        charge injection) is drawn per VMM.
    seed:
        Seed for the instance's RNG.
    rng:
        Alternatively, an externally managed generator (used by the
        Monte-Carlo harness to give each instance an independent stream).
    """

    def __init__(
        self,
        config: Optional[ArrayConfig] = None,
        variation: Optional[VariationModel] = None,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._config = config if config is not None else ArrayConfig()
        self._variation = variation if variation is not None else VariationModel.typical()
        self._rng = rng if rng is not None else make_rng(seed)

        cfg = self._config
        # Static per-instance mismatch map of all unit capacitors.
        self._caps = self._variation.sample_unit_capacitors(
            (cfg.rows, cfg.cols), self._rng
        )
        # eDAC group of each column position within a row.
        self._col_group = group_index_map(cfg.row_group_sizes)
        # CB-local bit index of each column (column c holds weight bit c%8).
        self._col_bit = np.arange(cfg.cols) % cfg.cb_cols
        # Phase-4 participation mask: in CB-local column b, the first 2^b
        # row capacitors connect to the final output line.
        share = np.asarray(cfg.cb_share_counts)
        self._share_mask = (
            np.arange(cfg.rows)[:, None] < share[self._col_bit][None, :]
        )
        # Stored weight bit-planes.
        self._weight_bits = np.zeros((cfg.rows, cfg.cols), dtype=np.uint8)
        self._programmed = False
        self._activation_count = 0
        self._vmm_count = 0

    # -- accessors ---------------------------------------------------------------
    @property
    def config(self) -> ArrayConfig:
        return self._config

    @property
    def variation(self) -> VariationModel:
        return self._variation

    @property
    def capacitances(self) -> np.ndarray:
        """The static (rows, cols) capacitance map, farads."""
        return self._caps.copy()

    @property
    def vmm_count(self) -> int:
        return self._vmm_count

    @property
    def activation_count(self) -> int:
        """Lifetime MCC charging events (drives the 1.62 fJ/act energy)."""
        return self._activation_count

    # -- weight programming --------------------------------------------------------
    def program_weights(self, weights: np.ndarray) -> None:
        """Store an unsigned 8-bit weight matrix of shape (rows, n_cbs).

        Weight ``weights[i, j]`` lands in compute bar ``j`` of row ``i``,
        bit ``b`` in CB-local column ``b``.
        """
        cfg = self._config
        arr = np.asarray(weights)
        if arr.shape != (cfg.rows, cfg.n_cbs):
            raise ValueError(
                f"expected weights of shape {(cfg.rows, cfg.n_cbs)}, got {arr.shape}"
            )
        if np.any(arr < 0) or np.any(arr >= (1 << cfg.weight_bits)):
            raise ValueError(f"weights must be in [0, {(1 << cfg.weight_bits) - 1}]")
        expanded = np.repeat(arr.astype(np.int64), cfg.cb_cols, axis=1)
        self._weight_bits = ((expanded >> self._col_bit[None, :]) & 1).astype(np.uint8)
        self._programmed = True

    @property
    def weight_bits(self) -> np.ndarray:
        return self._weight_bits.copy()

    def stored_weights(self) -> np.ndarray:
        """Reassemble the programmed (rows, n_cbs) unsigned weight matrix."""
        cfg = self._config
        planes = self._weight_bits.reshape(cfg.rows, cfg.n_cbs, cfg.cb_cols)
        scale = (1 << np.arange(cfg.cb_cols)).astype(np.int64)
        return (planes.astype(np.int64) * scale).sum(axis=2)

    # -- phase 1: DAC-less input conversion ------------------------------------------
    def convert_inputs(self, x: np.ndarray) -> np.ndarray:
        """Row charge share converting digital inputs to analog voltages.

        Parameters
        ----------
        x:
            Unsigned input codes, shape (rows,), each in [0, 255].

        Returns
        -------
        Post-share row voltages, shape (rows,).
        """
        cfg = self._config
        codes = self._check_inputs(x)
        # Pre-share target voltage per group: group 0 pinned to VSS, group
        # k>=1 driven to VDD when input bit k-1 is set.
        bits = (codes[:, None] >> np.arange(cfg.input_bits)[None, :]) & 1
        group_volts = np.concatenate(
            [np.zeros((cfg.rows, 1)), bits * constants.VDD_VOLT], axis=1
        )
        pre_share = group_volts[:, self._col_group]  # (rows, cols)
        self._activation_count += int(np.count_nonzero(pre_share))
        charge = (self._caps * pre_share).sum(axis=1)
        total_cap = self._caps.sum(axis=1)
        v_rows = charge / total_cap
        v_rows = v_rows + self._variation.ktc_noise(total_cap, self._rng)
        v_rows = v_rows + self._variation.charge_injection((cfg.rows,), self._rng)
        return np.clip(v_rows, constants.VSS_VOLT, constants.VDD_VOLT)

    # -- phase 2: 1-bit multiplication ---------------------------------------------
    def multiply(self, v_rows: np.ndarray) -> np.ndarray:
        """RWL pulse: keep the row voltage where the stored bit is 1,
        discharge to VSS where it is 0.  Returns (rows, cols) voltages."""
        if not self._programmed:
            raise RuntimeError("program_weights must be called before computing")
        v = np.asarray(v_rows, dtype=float)
        if v.shape != (self._config.rows,):
            raise ValueError(f"expected ({self._config.rows},) row voltages")
        return v[:, None] * self._weight_bits

    # -- phase 3: parallel accumulation ----------------------------------------------
    def accumulate_columns(self, v_cells: np.ndarray) -> np.ndarray:
        """Column-wide charge share: (rows, cols) -> (cols,) voltages."""
        cfg = self._config
        if v_cells.shape != (cfg.rows, cfg.cols):
            raise ValueError("cell voltage matrix has wrong shape")
        charge = (self._caps * v_cells).sum(axis=0)
        total_cap = self._caps.sum(axis=0)
        v_cols = charge / total_cap
        v_cols = v_cols + self._variation.ktc_noise(total_cap, self._rng)
        v_cols = v_cols + self._variation.charge_injection((cfg.cols,), self._rng)
        return np.clip(v_cols, constants.VSS_VOLT, constants.VDD_VOLT)

    # -- phase 4: weighted summation ---------------------------------------------------
    def weighted_sum(self, v_cols: np.ndarray) -> np.ndarray:
        """Multi-column charge share inside each CB: (cols,) -> (n_cbs,).

        Column ``b`` contributes ``2^b`` unit capacitors, realising the
        binary shift-and-add as a capacitance-ratioed average.
        """
        cfg = self._config
        if v_cols.shape != (cfg.cols,):
            raise ValueError("column voltage vector has wrong shape")
        part_caps = np.where(self._share_mask, self._caps, 0.0)
        cap_per_col = part_caps.sum(axis=0)  # (cols,) participating capacitance
        charge = (cap_per_col * v_cols).reshape(cfg.n_cbs, cfg.cb_cols).sum(axis=1)
        total_cap = cap_per_col.reshape(cfg.n_cbs, cfg.cb_cols).sum(axis=1)
        v_mac = charge / total_cap
        v_mac = v_mac + self._variation.ktc_noise(total_cap, self._rng)
        v_mac = v_mac + self._variation.charge_injection((cfg.n_cbs,), self._rng)
        return np.clip(v_mac, constants.VSS_VOLT, constants.VDD_VOLT)

    # -- full VMM -------------------------------------------------------------------
    def vmm_voltages(self, x: np.ndarray) -> np.ndarray:
        """Run all four phases; returns the (n_cbs,) MAC voltages."""
        return self.vmm_diagnostics(x).mac_voltages

    def vmm_diagnostics(self, x: np.ndarray) -> ArrayDiagnostics:
        """Run all four phases keeping every intermediate node voltage."""
        v_rows = self.convert_inputs(x)
        v_cells = self.multiply(v_rows)
        v_cols = self.accumulate_columns(v_cells)
        v_mac = self.weighted_sum(v_cols)
        self._vmm_count += 1
        return ArrayDiagnostics(
            input_voltages=v_rows, column_voltages=v_cols, mac_voltages=v_mac
        )

    def ideal_vmm_voltages(self, x: np.ndarray) -> np.ndarray:
        """Closed-form noiseless MAC voltages for the programmed weights."""
        cfg = self._config
        codes = self._check_inputs(x)
        dots = exact_int_matmul(
            codes,
            self.stored_weights(),
            a_bound=(1 << cfg.input_bits) - 1,
            b_bound=(1 << cfg.weight_bits) - 1,
        )
        return constants.VDD_VOLT * dots / float(
            (1 << cfg.input_bits) * cfg.rows * ((1 << cfg.weight_bits) - 1)
        )

    @property
    def full_scale_volt(self) -> float:
        """MAC voltage at the all-max input/weight corner: VDD * 255/256."""
        cfg = self._config
        max_code = (1 << cfg.input_bits) - 1
        return constants.VDD_VOLT * max_code / float(1 << cfg.input_bits)

    # -- energy ---------------------------------------------------------------------
    def energy_pj_per_vmm(self, x: np.ndarray) -> float:
        """Data-dependent array energy of one VMM.

        MCC charging scales with the fraction of capacitors actually driven
        high in phase 1 (the paper books 50 % average activity); row drivers
        and TDAs bill per VMM.
        """
        cfg = self._config
        codes = self._check_inputs(x)
        bits = (codes[:, None] >> np.arange(cfg.input_bits)[None, :]) & 1
        group_sizes = np.asarray(cfg.row_group_sizes[1:])
        activations = float((bits * group_sizes[None, :]).sum())
        return (
            activations * cfg.mcc_energy_fj * 1e-3
            + cfg.row_driver_count * cfg.row_driver_energy_fj * 1e-3
            + cfg.tda_count * cfg.tda_energy_fj * 1e-3
        )

    # -- helpers -----------------------------------------------------------------------
    def _check_inputs(self, x: np.ndarray) -> np.ndarray:
        cfg = self._config
        codes = np.asarray(x)
        if codes.shape != (cfg.rows,):
            raise ValueError(f"expected input of shape ({cfg.rows},), got {codes.shape}")
        if np.any(codes < 0) or np.any(codes >= (1 << cfg.input_bits)):
            raise ValueError(f"input codes must be in [0, {(1 << cfg.input_bits) - 1}]")
        return codes.astype(np.int64)


def input_conversion_transfer_curve(
    array: InChargeArray, row: int = 0
) -> "tuple[np.ndarray, np.ndarray]":
    """Sweep one row's input code 0..255 and record the conversion voltage.

    Used for Fig. 6(a).  Returns (codes, voltages).
    """
    cfg = array.config
    n_codes = 1 << cfg.input_bits
    if not 0 <= row < cfg.rows:
        raise ValueError(f"row {row} out of range")
    codes = np.arange(n_codes)
    voltages = np.empty(n_codes)
    x = np.zeros(cfg.rows, dtype=np.int64)
    for code in codes:
        x[row] = code
        voltages[code] = array.convert_inputs(x)[row]
    return codes, voltages
