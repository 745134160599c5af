"""Whole-model gradient table: every model variant against central differences.

The op table in ``tests/nn/test_functional.py`` checks each op's gradient in
isolation; the batched training path is otherwise only compared with the
per-bag path, so a bug both share would pass.  This table checks whole
models: for each of the 8 variants the factories build, at the ``tiny``
profile in float64 with dropout off, a seeded sample of coordinates of
every parameter (always including the coordinate with the largest analytic
gradient, so the sample is never all zeros) is compared with central
differences of the same loss, for both the batched training loss and the
per-bag ``model(bag, label)`` loss that is the executable spec.  The batched
loss must also equal the per-bag loss, so a batched forward that drifts from
the spec fails here even when its gradients are self-consistent.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.baselines.registry import build_method
from repro.batch import batched_train_logits
from repro.nn import functional as F

from test_batch_training import PARITY_METHODS

#: Coordinates sampled per parameter besides its largest-|gradient| one.
RANDOM_COORDINATES = 2
ATOL = 1e-8
RTOL = 1e-5


def _model(context, method_name):
    config = replace(context.model_config, dropout=0.0)
    model = build_method(
        method_name,
        vocab_size=context.vocab_size,
        num_relations=context.num_relations,
        model_config=config,
        training_config=context.training_config,
        kb=context.bundle.kb,
        entity_embeddings=context.entity_embeddings,
        seed=0,
    ).model
    model.train()
    return model


def _bags(context):
    """Three bags of different widths, sentence counts and labels."""
    store = context.train_encoded
    labelled = next(i for i in range(len(store)) if store.labels[i] != 0)
    bags = [store.bag(i) for i in (1, 4, labelled)]
    assert len({bag.max_length for bag in bags}) > 1
    assert len({bag.label for bag in bags}) > 1
    return bags


def _loss(model, bags, path):
    labels = np.array([bag.label for bag in bags], dtype=np.int64)
    if path == "batched":
        logits = batched_train_logits(model, bags)
    else:
        logits = nn.stack([model(bag, bag.label) for bag in bags], axis=0)
    return F.cross_entropy(logits, labels)


@pytest.mark.parametrize("path", ["batched", "per_bag"])
@pytest.mark.parametrize("method_name", PARITY_METHODS)
def test_gradients_match_central_differences(nyt_context, gradcheck, method_name, path):
    model = _model(nyt_context, method_name)
    bags = _bags(nyt_context)
    loss = _loss(model, bags, path)
    if path == "batched":
        spec = float(_loss(_model(nyt_context, method_name), bags, "per_bag").data)
        np.testing.assert_allclose(float(loss.data), spec, rtol=0, atol=1e-12)
    model.zero_grad()
    loss.backward()

    rng = np.random.default_rng(PARITY_METHODS.index(method_name))
    checked = 0
    for name, param in model.named_parameters():
        if not param.requires_grad:
            continue
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
        flat = rng.choice(param.size, size=min(param.size, RANDOM_COORDINATES), replace=False)
        flat = np.union1d(flat, [int(np.argmax(np.abs(analytic)))])
        coordinates = [np.unravel_index(i, param.shape) for i in flat]
        numeric = gradcheck(
            lambda: float(_loss(model, bags, path).data), param.data, indices=coordinates
        )
        picked = tuple(np.array(coordinates).T)
        np.testing.assert_allclose(
            analytic[picked], numeric[picked], rtol=RTOL, atol=ATOL,
            err_msg=f"{method_name}/{path}: d loss / d {name} at {coordinates}",
        )
        checked += len(coordinates)
    assert checked > 0
