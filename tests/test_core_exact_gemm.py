"""Exact float64 GEMMs on the analog path, checked against the int64 path.

The oracle is a frozen copy of the ``int64`` implementation of
``FastIMA.vmm_batch`` and of the engine's tile loop with its separate
calibration GEMM (``_tile_vmm`` / ``_calibrate_window``).  The float64 BLAS
path must reproduce it bit for bit: the same codes, the same estimates, the
same RNG draws, with one GEMM per tile read.
"""

import numpy as np
import pytest

import repro.core.engine as engine_module
import repro.core.ima as ima_module
from repro.core import exact_int_matmul
from repro.core.config import IMAConfig
from repro.core.engine import YocoMatmulEngine
from repro.core.gemm import EXACT_LIMIT
from repro.core.ima import DetailedIMA, FastIMA, IMAErrorModel

SEEDS = range(50)


# -- frozen int64 oracle ------------------------------------------------------------


def frozen_vmm_batch(unit: FastIMA, x_batch: np.ndarray) -> np.ndarray:
    """``FastIMA.vmm_batch`` as it was with an ``int64`` GEMM."""
    cfg = unit.config
    weights = unit.weights
    if weights is None:
        raise RuntimeError("program_weights must be called before vmm_batch")
    x = np.asarray(x_batch)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"expected (m, {cfg.input_dim}) inputs, got {x.shape}")
    if np.any(x < 0) or np.any(x >= (1 << cfg.array.input_bits)):
        raise ValueError("input codes must be unsigned 8-bit")
    dots = (x.astype(np.int64) @ weights).astype(float)
    if unit._window_lo is not None:
        ideal_codes = (dots - unit._window_lo[None, :]) / unit._code_step()
    else:
        ideal_codes = dots / unit.dot_product_per_code
    noisy = ideal_codes * unit._column_gain[None, :] + unit._column_offset[None, :]
    if unit.error_model.read_noise_codes > 0.0:
        noisy = noisy + unit._rng.normal(0.0, unit.error_model.read_noise_codes, noisy.shape)
    codes = np.clip(np.rint(noisy), 0, (1 << cfg.tdc_bits) - 1).astype(np.int64)
    unit._vmm_count += x.shape[0]
    return codes


def frozen_vmm_dequantized_batch(unit: FastIMA, x_batch: np.ndarray) -> np.ndarray:
    codes = frozen_vmm_batch(unit, x_batch).astype(float)
    if unit._window_lo is not None:
        return codes * unit._code_step()[None, :] + unit._window_lo[None, :]
    return codes * unit.dot_product_per_code


class FrozenEngine(YocoMatmulEngine):
    """The engine's tile loop as it was: ``np.pad`` tiles, ``int64`` GEMMs and
    a separate calibration GEMM after each auto-window (re)program."""

    def matmul_unsigned(self, x_u, w_u):
        x = self._check_operand(x_u, "x_u", 1 << self._config.array.input_bits)
        w = self._check_operand(w_u, "w_u", 1 << self._config.array.weight_bits)
        if x.shape[1] != w.shape[0]:
            raise ValueError(f"inner dimensions disagree: {x.shape[1]} vs {w.shape[0]}")
        k_grain = self._config.input_dim
        n_grain = self._config.output_dim
        m, k = x.shape
        n = w.shape[1]
        result = np.zeros((m, n), dtype=float)
        for k0 in range(0, k, k_grain):
            k_span = min(k_grain, k - k0)
            for n0 in range(0, n, n_grain):
                n_span = min(n_grain, n - n0)
                cfg = self._gated_config(k_span, n_span)
                x_tile = x[:, k0 : k0 + k_span]
                if x_tile.shape[1] != cfg.input_dim:
                    x_tile = np.pad(x_tile, ((0, 0), (0, cfg.input_dim - k_span)))
                w_tile = np.pad(
                    w[k0 : k0 + k_span, n0 : n0 + n_span],
                    ((0, cfg.input_dim - k_span), (0, cfg.output_dim - n_span)),
                )
                estimates = self._tile_vmm(k0 // k_grain, n0 // n_grain, cfg, x_tile, w_tile)
                result[:, n0 : n0 + n_span] += estimates[:, :n_span]
        return result

    def _tile_vmm(self, k_index, n_index, cfg, x_tile, w_tile):
        m = x_tile.shape[0]
        self._vmm_count += m
        self._energy_pj += m * cfg.vmm_energy_pj
        self._latency_ns += m * cfg.vmm_period_ns
        if self._mode == "ideal":
            return (x_tile.astype(np.int64) @ w_tile.astype(np.int64)).astype(float)
        unit, programmed = self._frozen_tile_unit(k_index, n_index, cfg, w_tile)
        if programmed and self._readout == "auto-window":
            self._calibrate_window(unit, x_tile, w_tile)
        return frozen_vmm_dequantized_batch(unit, x_tile)

    def _calibrate_window(self, unit, x_tile, w_tile):
        dots = (x_tile.astype(np.int64) @ w_tile.astype(np.int64)).astype(float)
        lo = dots.min(axis=0)
        hi = dots.max(axis=0)
        span = np.maximum(hi - lo, float(unit.config.array.rows))
        lo = lo - self._window_margin * span
        hi = hi + self._window_margin * span
        unit.set_readout_window(lo, hi)

    def _frozen_tile_unit(self, k_index, n_index, cfg, w_tile):
        key = (k_index, n_index, cfg.grid_rows, cfg.grid_cols)
        unit = self._tiles.get(key)
        if unit is None:
            tile_seed = hash((self._seed, key)) & 0x7FFFFFFF
            unit = FastIMA(config=cfg, error_model=self._error_model, seed=tile_seed)
            self._tiles[key] = unit
            unit.program_weights(w_tile)
            return unit, True
        current = unit.weights
        if current is None or not np.array_equal(current, w_tile):
            unit.program_weights(w_tile)
            return unit, True
        return unit, False


# -- helpers ------------------------------------------------------------------------------


def _twin_units(seed: int, weights: np.ndarray, error_model=None):
    units = [FastIMA(error_model=error_model, seed=seed) for _ in range(2)]
    for unit in units:
        unit.program_weights(weights)
    return units


def _assert_engines_agree(seed, x, w, zero_point, readout, calls=2):
    """Run the same operand sequence on a live and a frozen engine."""
    live = YocoMatmulEngine(mode="fast", seed=seed, readout=readout)
    frozen = FrozenEngine(mode="fast", seed=seed, readout=readout)
    rng = np.random.default_rng(seed + 1000)
    for call in range(calls):
        got = live.matmul_signed(x, w, x_zero_point=zero_point)
        want = frozen.matmul_signed(x, w, x_zero_point=zero_point)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want), f"seed {seed}, call {call}"
        assert got.tobytes() == want.tobytes(), f"seed {seed}, call {call}"
        # Same weights (tiles stay programmed), then fresh weights
        # (every tile re-programs and, with auto-window, re-calibrates).
        x = rng.integers(0, 256, x.shape)
        if call % 2:
            w = rng.integers(-128, 128, w.shape)
    assert live.vmm_count == frozen.vmm_count
    assert live.total_energy_pj == frozen.total_energy_pj
    assert live.total_latency_ns == frozen.total_latency_ns


# -- the oracle cases ----------------------------------------------------------------------


class TestFastIMAOracle:
    @pytest.mark.parametrize("error_model", [None, IMAErrorModel.ideal()])
    def test_full_scale_readout(self, error_model):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            weights = rng.integers(0, 256, (1024, 256))
            live, frozen = _twin_units(seed, weights, error_model)
            for m in (1, 1 + seed % 7):
                x = rng.integers(0, 256, (m, 1024))
                assert np.array_equal(live.vmm_batch(x), frozen_vmm_batch(frozen, x)), seed
            assert live.vmm_count == frozen.vmm_count

    def test_explicit_window(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            weights = rng.integers(0, 256, (1024, 256))
            live, frozen = _twin_units(seed, weights)
            lo = rng.uniform(0.0, 8e6, 256)
            hi = lo + rng.uniform(1e3, 2e7, 256)
            for unit in (live, frozen):
                unit.set_readout_window(lo, hi)
            x = rng.integers(0, 256, (4, 1024))
            assert np.array_equal(live.vmm_batch(x), frozen_vmm_batch(frozen, x)), seed
            got = live.vmm_dequantized_batch(x)
            assert np.array_equal(got, frozen_vmm_dequantized_batch(frozen, x)), seed

    def test_all_max_corner_at_full_depth(self):
        """k=1024 rows of 255*255: the largest sum any tile can form."""
        weights = np.full((1024, 256), 255)
        x = np.full((3, 1024), 255)
        assert (x.astype(np.int64) @ weights).max() == 1024 * 255 * 255 < EXACT_LIMIT
        for seed in SEEDS:
            live, frozen = _twin_units(seed, weights)
            assert np.array_equal(live.vmm_batch(x), frozen_vmm_batch(frozen, x)), seed
            assert np.array_equal(
                live.vmm_dequantized_batch(x), frozen_vmm_dequantized_batch(frozen, x)
            ), seed

    def test_weights_stay_int64(self, rng):
        weights = rng.integers(0, 256, (1024, 256)).astype(np.uint8)
        unit = FastIMA(seed=0)
        unit.program_weights(weights)
        got = unit.weights
        assert got.dtype == np.int64
        assert np.array_equal(got, weights)
        got[0, 0] = 7  # a copy: the programmed matrix is untouched
        assert unit.weights[0, 0] == weights[0, 0]


class TestEngineOracle:
    @pytest.mark.parametrize("readout", ["full", "auto-window"])
    def test_single_tile(self, readout):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 256, (1 + seed % 2, 1024))
            w = rng.integers(-128, 128, (1024, 256))
            _assert_engines_agree(seed, x, w, int(rng.integers(0, 256)), readout)

    @pytest.mark.parametrize("readout", ["full", "auto-window"])
    def test_gated_shapes(self, readout):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 1024))
            n = int(rng.integers(1, 256))
            x = rng.integers(0, 256, (1 + seed % 4, k))
            w = rng.integers(-128, 128, (k, n))
            _assert_engines_agree(seed, x, w, int(rng.integers(0, 256)), readout)

    @pytest.mark.parametrize("readout", ["full", "auto-window"])
    def test_multi_k_tile_ragged_shapes(self, readout):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1025, 1700))
            n = int(rng.integers(257, 330))
            x = rng.integers(0, 256, (1 + seed % 2, k))
            w = rng.integers(-128, 128, (k, n))
            _assert_engines_agree(seed, x, w, int(rng.integers(0, 256)), readout, calls=3)

    @pytest.mark.parametrize("readout", ["full", "auto-window"])
    def test_all_max_corner_at_full_depth(self, readout):
        x = np.full((2, 1024), 255)
        w = np.full((1024, 256), 127)  # offset-encoded to 255
        for seed in SEEDS:
            _assert_engines_agree(seed, x, w, 0, readout, calls=1)

    def test_ideal_mode_is_the_int64_product(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 2600))
            x = rng.integers(0, 256, (3, k))
            w = rng.integers(0, 256, (k, int(rng.integers(1, 560))))
            got = YocoMatmulEngine(mode="ideal").matmul_unsigned(x, w)
            frozen = FrozenEngine(mode="ideal").matmul_unsigned(x, w)
            assert got.tobytes() == frozen.tobytes(), seed


# -- one GEMM per tile read -----------------------------------------------------------------


class TestOneGemmPerTileRead:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"gemm": 0, "vmm_batch": 0}

        def counting_gemm(*args, **kwargs):
            counts["gemm"] += 1
            return exact_int_matmul(*args, **kwargs)

        vmm_batch = FastIMA.vmm_batch

        def counting_vmm_batch(self, x_batch):
            counts["vmm_batch"] += 1
            return vmm_batch(self, x_batch)

        monkeypatch.setattr(ima_module, "exact_int_matmul", counting_gemm)
        monkeypatch.setattr(engine_module, "exact_int_matmul", counting_gemm)
        monkeypatch.setattr(FastIMA, "vmm_batch", counting_vmm_batch)
        return counts

    @pytest.mark.parametrize("readout", ["full", "auto-window"])
    def test_each_tile_read_is_one_gemm(self, counts, rng, readout):
        engine = YocoMatmulEngine(mode="fast", seed=3, readout=readout)
        k, n = 1500, 300  # 2 x 2 tiles, three of them power-gated
        x = rng.integers(0, 256, (5, k))
        w = rng.integers(-128, 128, (k, n))
        expected = 0
        for weights in (w, w, rng.integers(-128, 128, (k, n))):
            engine.matmul_signed(x, weights, x_zero_point=9)
            expected += 4
            assert counts == {"gemm": expected, "vmm_batch": expected}
        for unit in engine._tiles.values():
            assert unit.weights.dtype == np.int64
            assert not unit._calibration_pending
            assert unit.has_readout_window == (readout == "auto-window")

    def test_ideal_mode_is_one_gemm_per_tile(self, counts, rng):
        engine = YocoMatmulEngine(mode="ideal")
        engine.matmul_unsigned(
            rng.integers(0, 256, (2, 2100)), rng.integers(0, 256, (2100, 300))
        )
        assert counts == {"gemm": 6, "vmm_batch": 0}


# -- the helper ---------------------------------------------------------------------------


class TestExactIntMatmul:
    def test_matches_int64_on_signed_operands(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            k = int(rng.integers(0, 300))
            a = rng.integers(-255, 256, (int(rng.integers(0, 6)), k))
            b = rng.integers(-128, 128, (k, int(rng.integers(1, 40))))
            got = exact_int_matmul(a, b)
            assert got.dtype == np.float64
            assert got.tobytes() == (a @ b).astype(float).tobytes(), seed

    def test_zero_is_positive(self):
        got = exact_int_matmul(np.array([[-3, -1]]), np.array([[0], [0]]))
        assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])

    def test_vector_operand(self):
        a = np.arange(8)
        b = np.arange(16).reshape(8, 2)
        assert np.array_equal(exact_int_matmul(a, b), (a @ b).astype(float))

    def test_bound_at_limit_raises(self):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            exact_int_matmul(np.array([[1 << 40]]), np.array([[1 << 13]]))
        with pytest.raises(ValueError, match="2\\*\\*53"):
            exact_int_matmul(np.array([[-(1 << 40)]]), np.array([[1 << 13]]))

    def test_bound_counts_the_inner_dimension(self):
        k = 64
        a = np.ones((1, k), dtype=np.int64)
        b = np.ones((k, 1), dtype=np.int64)
        limit_per_term = EXACT_LIMIT // k
        ok = exact_int_matmul(a, b, a_bound=limit_per_term - 1, b_bound=1)
        assert ok[0, 0] == k
        with pytest.raises(ValueError):
            exact_int_matmul(a, b, a_bound=limit_per_term, b_bound=1)

    def test_float_operands_are_bounded_too(self):
        with pytest.raises(ValueError):
            exact_int_matmul(np.array([[2.0**53]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            exact_int_matmul(np.array([[np.nan]]), np.array([[1.0]]))
        got = exact_int_matmul(np.array([[2.5]]), np.array([[2.0]]))
        assert got[0, 0] == 5.0  # float operands are taken as given

    def test_empty_operands(self):
        assert exact_int_matmul(np.zeros((0, 4), int), np.ones((4, 3), int)).shape == (0, 3)
        empty_k = exact_int_matmul(np.zeros((2, 0), int), np.zeros((0, 3), int))
        assert np.array_equal(empty_k, np.zeros((2, 3)))


# -- empty batches ----------------------------------------------------------------------------


class TestEmptyBatch:
    @pytest.mark.parametrize(
        "mode, readout",
        [("ideal", "full"), ("fast", "full"), ("fast", "auto-window"), ("detailed", "full")],
    )
    def test_engine_returns_empty_rows(self, mode, readout, rng):
        engine = YocoMatmulEngine(mode=mode, seed=0, readout=readout)
        w = rng.integers(-128, 128, (100, 20))
        out = engine.matmul_signed(np.zeros((0, 100), dtype=np.int64), w, x_zero_point=3)
        assert out.shape == (0, 20)
        assert engine.matmul_unsigned(np.zeros((0, 100), int), w + 128).shape == (0, 20)
        assert engine.vmm_count == 0

    def test_empty_batch_keeps_the_pending_calibration(self, rng):
        x = rng.integers(0, 256, (4, 1500))
        w = rng.integers(-128, 128, (1500, 300))
        fresh = YocoMatmulEngine(mode="fast", seed=5, readout="auto-window")
        after_empty = YocoMatmulEngine(mode="fast", seed=5, readout="auto-window")
        after_empty.matmul_signed(np.zeros((0, 1500), dtype=np.int64), w, 7)
        units = list(after_empty._tiles.values())
        assert len(units) == 4
        assert all(u._calibration_pending and not u.has_readout_window for u in units)
        want = fresh.matmul_signed(x, w, 7)
        assert np.array_equal(after_empty.matmul_signed(x, w, 7), want)
        assert not any(u._calibration_pending for u in units)

    def test_fast_ima_empty_read(self, rng):
        unit = FastIMA(seed=0, window_margin=0.5)
        unit.program_weights(rng.integers(0, 256, (1024, 256)))
        assert unit.vmm_batch(np.zeros((0, 1024), dtype=np.int64)).shape == (0, 256)
        assert unit._calibration_pending
        unit.vmm_batch(rng.integers(0, 256, (2, 1024)))
        assert not unit._calibration_pending and unit.has_readout_window


class TestAutoWindowUnit:
    def test_explicit_window_cancels_pending_calibration(self, rng):
        unit = FastIMA(seed=0, window_margin=0.5)
        unit.program_weights(rng.integers(0, 256, (1024, 256)))
        lo, hi = np.zeros(256), np.full(256, 1e6)
        unit.set_readout_window(lo, hi)
        assert not unit._calibration_pending
        unit.vmm_batch(rng.integers(0, 256, (2, 1024)))
        assert np.array_equal(unit._window_lo, lo)

    def test_reprogram_rearms_calibration(self, rng):
        unit = FastIMA(seed=0, window_margin=0.0)
        for _ in range(2):
            unit.program_weights(rng.integers(0, 256, (1024, 256)))
            assert unit._calibration_pending
            x = rng.integers(0, 256, (3, 1024))
            unit.vmm_batch(x)
            dots = (x @ unit.weights).astype(float)
            assert np.array_equal(unit._window_lo, dots.min(axis=0))

    def test_full_readout_unit_never_calibrates(self, rng):
        unit = FastIMA(seed=0)
        unit.program_weights(rng.integers(0, 256, (1024, 256)))
        assert not unit._calibration_pending
        unit.vmm_batch(rng.integers(0, 256, (2, 1024)))
        assert not unit.has_readout_window

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            FastIMA(window_margin=-0.1)


class TestOtherExactSites:
    def test_detailed_ideal_codes(self, rng):
        cfg = IMAConfig(grid_rows=1, grid_cols=1)
        unit = DetailedIMA(config=cfg, seed=0)
        weights = rng.integers(0, 256, (cfg.input_dim, cfg.output_dim))
        unit.program_weights(weights)
        x = rng.integers(0, 256, (5, cfg.input_dim))
        dots = x.astype(np.int64) @ weights
        want = np.clip(np.rint(dots / unit.dot_product_per_code).astype(np.int64), 0, 255)
        assert np.array_equal(unit.ideal_codes(x), want)
