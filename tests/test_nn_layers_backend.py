"""Layers and backends: forward == infer, quantized paths, engine billing."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analog.variation import stable_seed
from repro.nn.autograd import Tensor
from repro.nn.backend import (
    FloatBackend,
    InferenceContext,
    QuantizedBackend,
    YocoBackend,
)
from repro.nn.graph import Sequential
from repro.nn.layers import (
    Conv2d,
    Embedding,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    ReLU,
    ResidualBlock,
    TransformerBlock,
)
from repro.nn.zoo import TransformerClassifier, build_cnn_small


def _ctx():
    return InferenceContext(backend=FloatBackend())


class TestForwardInferAgreement:
    """`infer` under a FloatBackend must equal the autograd forward."""

    def test_linear(self, rng):
        layer = Linear(6, 4, seed=0)
        x = rng.normal(size=(3, 6))
        assert np.allclose(layer.infer(x, _ctx()), layer(Tensor(x)).data)

    def test_conv2d(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, padding=1, seed=1)
        x = rng.normal(size=(2, 2, 5, 5))
        assert np.allclose(layer.infer(x, _ctx()), layer(Tensor(x)).data)

    def test_pool_and_pointwise(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        for layer in (ReLU(), GELU(), MaxPool2d(2), GlobalAvgPool2d(), Flatten()):
            assert np.allclose(
                layer.infer(x, _ctx()), layer(Tensor(x)).data
            ), type(layer).__name__

    def test_layer_norm(self, rng):
        layer = LayerNorm(8)
        x = rng.normal(size=(3, 8))
        assert np.allclose(layer.infer(x, _ctx()), layer(Tensor(x)).data)

    def test_embedding(self, rng):
        layer = Embedding(10, 4, seed=0)
        idx = rng.integers(0, 10, (2, 5))
        assert np.allclose(layer.infer(idx, _ctx()), layer.forward(idx).data)

    def test_attention(self, rng):
        layer = MultiHeadSelfAttention(8, 2, seed=0)
        x = rng.normal(size=(2, 5, 8))
        assert np.allclose(layer.infer(x, _ctx()), layer(Tensor(x)).data, atol=1e-10)

    def test_transformer_block(self, rng):
        layer = TransformerBlock(8, 2, 16, seed=0)
        x = rng.normal(size=(2, 5, 8))
        assert np.allclose(layer.infer(x, _ctx()), layer(Tensor(x)).data, atol=1e-10)

    def test_residual_block_identity_skip(self, rng):
        layer = ResidualBlock(4, 4, seed=0)
        x = rng.normal(size=(2, 4, 6, 6))
        assert layer.projection is None
        assert np.allclose(layer.infer(x, _ctx()), layer(Tensor(x)).data, atol=1e-10)

    def test_residual_block_projected_skip(self, rng):
        layer = ResidualBlock(4, 8, seed=0)
        x = rng.normal(size=(2, 4, 6, 6))
        assert layer.projection is not None
        out = layer.infer(x, _ctx())
        assert out.shape == (2, 8, 6, 6)
        assert np.allclose(out, layer(Tensor(x)).data, atol=1e-10)

    def test_residual_block_gradients_flow_through_skip(self, rng):
        layer = ResidualBlock(3, 3, seed=1)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        from repro.nn import autograd as ag

        ag.sum_(layer(x)).backward()
        assert x.grad is not None
        assert np.any(x.grad != 0.0)

    def test_sequential_cnn(self, rng):
        model = build_cnn_small(n_classes=3, seed=2)
        x = rng.normal(size=(2, 1, 16, 16))
        assert np.allclose(model.infer(x, _ctx()), model(Tensor(x)).data, atol=1e-10)

    def test_transformer_classifier(self, rng):
        model = TransformerClassifier(vocab_size=11, max_length=6, dim=8, n_heads=2,
                                      n_blocks=1, ff_dim=16, n_classes=3, seed=0)
        idx = rng.integers(0, 11, (2, 6))
        assert np.allclose(model.infer(idx, _ctx()), model.forward(idx).data, atol=1e-10)


class TestModuleMechanics:
    def test_parameter_discovery(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        # 2 weights + 2 biases.
        assert len(model.parameters()) == 4

    def test_n_parameters(self):
        model = Linear(4, 8)
        assert model.n_parameters() == 4 * 8 + 8

    def test_zero_grad(self, rng):
        model = Linear(3, 2)
        out = model(Tensor(rng.normal(size=(1, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_sequential_validation(self):
        with pytest.raises(ValueError):
            Sequential()

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            Linear(0, 4)
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2)


class TestQuantizedBackend:
    def test_close_to_float(self, rng):
        x = rng.normal(size=(4, 32))
        w = rng.normal(size=(32, 8))
        exact = x @ w
        approx = QuantizedBackend().matmul("l", x, w)
        assert np.abs(approx - exact).max() / np.abs(exact).max() < 0.02

    def test_weight_cache_reused(self, rng):
        backend = QuantizedBackend()
        x = rng.normal(size=(2, 16))
        w = rng.normal(size=(16, 4))
        backend.matmul("l", x, w)
        cached = backend._weight_cache["l"]
        backend.matmul("l", x, w)
        assert backend._weight_cache["l"] is cached

    def test_cache_invalidated_on_new_weights(self, rng):
        backend = QuantizedBackend()
        x = rng.normal(size=(2, 16))
        backend.matmul("l", x, rng.normal(size=(16, 4)))
        first = backend._weight_cache["l"]
        backend.matmul("l", x, rng.normal(size=(16, 4)))
        assert backend._weight_cache["l"] is not first

    def test_reset(self, rng):
        backend = QuantizedBackend()
        backend.matmul("l", rng.normal(size=(2, 4)), rng.normal(size=(4, 2)))
        backend.reset()
        assert backend._weight_cache == {}


class TestYocoBackend:
    def test_tracks_energy_and_vmms(self, rng):
        backend = YocoBackend(mode="fast", seed=0)
        x = rng.normal(size=(4, 200))
        w = rng.normal(size=(200, 32))
        backend.matmul("layer0", x, w)
        assert backend.total_vmm_count == 4
        assert backend.total_energy_pj > 0
        assert "layer0" in backend.engines

    def test_error_larger_than_quantized_but_bounded(self, rng):
        x = rng.normal(size=(8, 64))
        w = rng.normal(size=(64, 16))
        exact = x @ w
        quant = QuantizedBackend().matmul("l", x, w)
        yoco = YocoBackend(mode="fast", seed=1).matmul("l", x, w)
        scale = np.abs(exact).max()
        assert np.abs(yoco - exact).max() / scale < 0.2
        assert np.abs(yoco - exact).max() >= np.abs(quant - exact).max() * 0.5

    def test_ideal_engine_mode_equals_quantized(self, rng):
        """YocoBackend(ideal) = same int math as QuantizedBackend."""
        x = rng.normal(size=(3, 40))
        w = rng.normal(size=(40, 8))
        a = QuantizedBackend().matmul("l", x, w)
        b = YocoBackend(mode="ideal", seed=0).matmul("l", x, w)
        assert np.allclose(a, b)


#: Prints a digest of untrained cnn_deep logits under each analog backend.
_LOGITS_SCRIPT = """
import hashlib
from repro.arch.deploy import ChipBackend
from repro.nn.backend import InferenceContext, YocoBackend
from repro.nn.datasets import synthetic_images
from repro.nn.zoo import build_cnn_deep
images = synthetic_images(n_train=0, n_test=4, seed=0)
model = build_cnn_deep(n_classes=images.n_classes, seed=0)
for backend in (YocoBackend(seed=0), ChipBackend(seed=0)):
    logits = model.infer(images.x_test, InferenceContext(backend=backend))
    print(hashlib.sha256(logits.tobytes()).hexdigest())
"""


class TestLayerSeeds:
    def test_stable_seed_is_pinned(self):
        assert stable_seed(0, "linear0") == 1923470195
        assert stable_seed(1, "linear0") != stable_seed(0, "linear0")
        assert stable_seed(0, "conv1") != stable_seed(0, "linear0")
        assert 0 <= stable_seed(2**40, "x" * 100) < 2**31

    def test_logits_do_not_depend_on_the_hash_seed(self):
        """Per-layer engine seeds must not come from ``hash()`` of a name."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            run = subprocess.run(
                [sys.executable, "-c", _LOGITS_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout.split())
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1]


class TestEmptyBatch:
    @pytest.mark.parametrize(
        "make",
        [
            FloatBackend,
            QuantizedBackend,
            lambda: YocoBackend(mode="fast", seed=0),
            lambda: YocoBackend(mode="fast", seed=0, readout="full"),
            lambda: YocoBackend(mode="ideal", seed=0),
            lambda: YocoBackend(mode="detailed", seed=0),
        ],
        ids=["float", "quantized", "yoco-auto-window", "yoco-full", "yoco-ideal",
             "yoco-detailed"],
    )
    def test_empty_batch_gives_empty_rows(self, make, rng):
        backend = make()
        w = rng.normal(size=(40, 8))
        assert backend.matmul("l", np.zeros((0, 40)), w).shape == (0, 8)
        # An empty inner dimension is an all-zero product.
        assert np.array_equal(backend.matmul("e", np.ones((3, 0)), np.ones((0, 8))),
                              np.zeros((3, 8)))
        with pytest.raises(ValueError):
            backend.matmul("l", np.zeros((0, 41)), w)

    def test_empty_batch_leaves_the_next_read_unchanged(self, rng):
        x = rng.normal(size=(4, 300))
        w = rng.normal(size=(300, 20))
        after_empty = YocoBackend(mode="fast", seed=2)
        after_empty.matmul("l", np.zeros((0, 300)), w)
        want = YocoBackend(mode="fast", seed=2).matmul("l", x, w)
        assert np.array_equal(after_empty.matmul("l", x, w), want)


class TestInferenceContext:
    def test_scoped_names_are_deterministic(self):
        ctx1 = InferenceContext()
        ctx2 = InferenceContext()
        names1 = [ctx1.scoped_name("linear") for _ in range(3)]
        names2 = [ctx2.scoped_name("linear") for _ in range(3)]
        assert names1 == names2
        assert len(set(names1)) == 3

    def test_fresh_resets_counter_keeps_backend(self):
        backend = FloatBackend()
        ctx = InferenceContext(backend=backend)
        ctx.scoped_name("conv")
        fresh = ctx.fresh()
        assert fresh.backend is backend
        assert fresh.scoped_name("conv") == "conv0"
