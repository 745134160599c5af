"""Batched-vs-per-bag *training* parity (:mod:`repro.batch.forward`).

Mirrors the inference parity suite in ``tests/test_serve.py``: for every
encoder/aggregator/head combination the vectorized padded-batch training
forward must match the per-bag loop to float64 round-off — same batch and
epoch losses, and same parameters after every optimisation step — including
ragged batches, dropout (identical RNG stream consumption) and bags whose
entities are unknown to the knowledge base (entity id -1).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.baselines.registry import build_method
from repro.batch import batched_train_logits, supports_batched_training
from repro.config import TrainingConfig
from repro.exceptions import ModelError
from repro.nn import functional as F
from repro.training.trainer import Trainer

# Every aggregation/encoder/head combination the factories can build.
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]


def _build_model(context, method_name):
    """A freshly initialised model; identical across calls with equal seeds."""
    return build_method(
        method_name,
        vocab_size=context.vocab_size,
        num_relations=context.num_relations,
        model_config=context.model_config,
        training_config=context.training_config,
        kb=context.bundle.kb,
        entity_embeddings=context.entity_embeddings,
        seed=0,
    ).model


def _fit(context, method_name, bags, batched, epochs=2, batch_size=7):
    model = _build_model(context, method_name)
    config = TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=0.01,
        optimizer="adam",
        seed=0,
        batched_training=batched,
    )
    trainer = Trainer(model, context.num_relations, config)
    result = trainer.fit(bags)
    return result, [param.data.copy() for param in model.parameters()], trainer


class TestBatchedTrainingParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_fit_matches_per_bag(self, nyt_context, method_name):
        # batch_size 7 over 24 bags -> a ragged final batch in every epoch.
        bags = nyt_context.train_encoded[:24]
        per_bag, per_bag_params, _ = _fit(nyt_context, method_name, bags, batched=False)
        batched, batched_params, trainer = _fit(nyt_context, method_name, bags, batched=True)
        assert trainer._batched, "batched path was not engaged"
        np.testing.assert_allclose(
            batched.batch_losses, per_bag.batch_losses, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            batched.epoch_losses, per_bag.epoch_losses, rtol=0, atol=1e-10
        )
        for expected, actual in zip(per_bag_params, batched_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_gradients_match_per_bag(self, nyt_context):
        """Gradient-level parity of one forward/backward, before any step."""
        bags = nyt_context.train_encoded[:12]
        labels = np.array([bag.label for bag in bags], dtype=np.int64)
        weights = np.ones(nyt_context.num_relations)
        weights[0] = 0.25
        grads = {}
        for batched in (False, True):
            model = _build_model(nyt_context, "pa_tmr")
            model.train()
            if batched:
                logits = batched_train_logits(model, bags)
            else:
                logits = nn.stack([model(bag, bag.label) for bag in bags], axis=0)
            F.cross_entropy(logits, labels, weight=weights).backward()
            grads[batched] = [
                param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
                for param in model.parameters()
            ]
        for expected, actual in zip(grads[False], grads[True]):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    def test_unknown_entity_id_minus_one(self, nyt_context):
        """Bags with KB-unknown entities (-1 -> zero MR vector) keep parity."""
        bags = [
            replace(bag, head_entity_id=-1) if index % 3 == 0 else bag
            for index, bag in enumerate(nyt_context.train_encoded[:12])
        ]
        bags[1] = replace(bags[1], tail_entity_id=-1)
        per_bag, per_bag_params, _ = _fit(nyt_context, "pa_tmr", bags, batched=False, epochs=1)
        batched, batched_params, _ = _fit(nyt_context, "pa_tmr", bags, batched=True, epochs=1)
        np.testing.assert_allclose(
            batched.batch_losses, per_bag.batch_losses, rtol=0, atol=1e-10
        )
        for expected, actual in zip(per_bag_params, batched_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_single_bag_batch(self, nyt_context):
        model = _build_model(nyt_context, "pa_tmr")
        model.train()
        bag = nyt_context.train_encoded[0]
        reference = _build_model(nyt_context, "pa_tmr")
        reference.train()
        batched = batched_train_logits(model, [bag])
        per_bag = reference(bag, bag.label)
        assert batched.shape == (1, nyt_context.num_relations)
        np.testing.assert_allclose(batched.data[0], per_bag.data, rtol=0, atol=1e-12)


class _PerBagOnlyModel(nn.Module):
    """A model the batched layer cannot understand (no base_model/aggregator)."""

    def __init__(self, num_relations: int) -> None:
        super().__init__()
        self.weights = nn.Parameter(np.zeros(num_relations))

    def forward(self, bag, relation_id=None):
        return self.weights * 1.0


class TestBatchedTrainingGuards:
    def test_empty_batch_rejected(self, nyt_context):
        model = _build_model(nyt_context, "pcnn_att")
        with pytest.raises(ModelError):
            batched_train_logits(model, [])

    def test_unsupported_model_rejected(self, nyt_context):
        model = _PerBagOnlyModel(nyt_context.num_relations)
        assert not supports_batched_training(model)
        with pytest.raises(ModelError):
            batched_train_logits(model, nyt_context.train_encoded[:2])

    def test_trainer_falls_back_to_per_bag(self, nyt_context):
        """An unsupported model still trains — through the per-bag loop."""
        model = _PerBagOnlyModel(nyt_context.num_relations)
        config = TrainingConfig(
            epochs=1, batch_size=4, learning_rate=0.01, optimizer="adam", seed=0
        )
        trainer = Trainer(model, nyt_context.num_relations, config)
        assert not trainer._batched
        result = trainer.fit(nyt_context.train_encoded[:8])
        assert result.epochs_run == 1
        assert not result.diverged

    def test_flag_disables_batched_path(self, nyt_context):
        model = _build_model(nyt_context, "pcnn_att")
        config = TrainingConfig(
            epochs=1, batch_size=4, learning_rate=0.01, optimizer="adam", seed=0,
            batched_training=False,
        )
        assert not Trainer(model, nyt_context.num_relations, config)._batched
