"""``at_decode_step`` against an oracle written from its documented rules.

A decode step computes one new token against a ``context_len``-deep KV
cache: projections / FFNs whose native row count is the native sequence
length shrink to one row, attention score becomes ``(1 x head_dim) @
(head_dim x ctx)``, attention context ``(1 x ctx) @ (ctx x head_dim)``, and
every other layer is untouched.  The token axis is decided against the
native layer — MobileBERT's hidden width equals its sequence length, so a
rule keyed on dimension values would rewrite its weight shapes.
"""

import pytest

from repro.models.workload import (
    GemmShape,
    LayerKind,
    LayerSpec,
    WorkloadSpec,
    at_decode_step,
)
from repro.models.zoo import TRANSFORMER_MODELS, get_workload


def _oracle(native: WorkloadSpec, ctx: int) -> WorkloadSpec:
    layers = []
    for layer in native.layers:
        gemm = layer.gemm
        if layer.kind in (LayerKind.PROJECTION, LayerKind.FFN):
            if gemm.m == native.seq_len:
                gemm = GemmShape(1, gemm.k, gemm.n)
        elif layer.kind == LayerKind.ATTENTION_SCORE:
            gemm = GemmShape(1, gemm.k, ctx)
        elif layer.kind == LayerKind.ATTENTION_CONTEXT:
            gemm = GemmShape(1, ctx, gemm.n)
        layers.append(
            LayerSpec(layer.name, layer.kind, gemm, layer.static_weights, layer.repeat)
        )
    return WorkloadSpec(
        name=native.name,
        kind=native.kind,
        layers=tuple(layers),
        description=native.description,
        seq_len=ctx,
    )


@pytest.mark.parametrize("model", TRANSFORMER_MODELS)
def test_decode_step_matches_oracle(model):
    native = get_workload(model)
    for ctx in (1, native.seq_len, native.seq_len + 77):
        step = at_decode_step(native, ctx)
        assert step == _oracle(native, ctx), (model, ctx)
        assert step.total_weight_bytes == native.total_weight_bytes


def test_mobilebert_weight_shapes_survive_decode():
    native = get_workload("mobilebert")
    # The hazard: trained weight dimensions equal to the sequence length.
    assert any(
        layer.static_weights and native.seq_len in (layer.gemm.k, layer.gemm.n)
        for layer in native.layers
    )
    step = at_decode_step(native, native.seq_len)
    for before, after in zip(native.layers, step.layers):
        if before.static_weights:
            assert (after.gemm.k, after.gemm.n) == (before.gemm.k, before.gemm.n)


def test_decode_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        at_decode_step(get_workload("mobilebert"), 0)
    with pytest.raises(ValueError):
        at_decode_step(get_workload("resnet18"), 16)
