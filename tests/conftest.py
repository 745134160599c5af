"""Shared fixtures for the test suite.

Expensive artefacts (synthetic dataset bundles, the prepared experiment
context, a couple of trained models) are built once per session at the
``tiny`` scale so individual tests stay fast.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests from a source checkout even when the package has
# not been pip-installed (e.g. straight after cloning).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import ModelConfig, ScaleProfile, TrainingConfig  # noqa: E402
from repro.corpus.datasets import build_synth_gds, build_synth_nyt  # noqa: E402
from repro.experiments.pipeline import prepare_context, train_and_evaluate  # noqa: E402


@pytest.fixture(scope="session")
def tiny_profile() -> ScaleProfile:
    return ScaleProfile.tiny()


@pytest.fixture(scope="session")
def nyt_bundle(tiny_profile):
    """A tiny SynthNYT dataset bundle shared by the data-layer tests."""
    return build_synth_nyt(tiny_profile, seed=0)


@pytest.fixture(scope="session")
def gds_bundle(tiny_profile):
    """A tiny SynthGDS dataset bundle."""
    return build_synth_gds(tiny_profile, seed=0)


@pytest.fixture(scope="session")
def nyt_context(tiny_profile):
    """A fully prepared experiment context (graph, embeddings, encoded bags)."""
    return prepare_context("nyt", profile=tiny_profile, seed=0)


@pytest.fixture(scope="session")
def trained_pcnn_att(nyt_context):
    """A PCNN+ATT baseline trained on the tiny context (shared across tests)."""
    method, result = train_and_evaluate(nyt_context, "pcnn_att")
    return method, result


@pytest.fixture(scope="session")
def trained_pa_tmr(nyt_context):
    """The proposed PA-TMR model trained on the tiny context."""
    method, result = train_and_evaluate(nyt_context, "pa_tmr")
    return method, result


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def small_model_config() -> ModelConfig:
    """A deliberately small model configuration for unit tests."""
    return ModelConfig(
        entity_embedding_dim=8,
        type_embedding_dim=4,
        window_size=3,
        num_filters=6,
        position_embedding_dim=3,
        word_embedding_dim=5,
        learning_rate=0.1,
        max_sentence_length=20,
        dropout=0.0,
        batch_size=4,
        gru_hidden_dim=5,
        max_position_distance=10,
    )


@pytest.fixture()
def fast_training_config() -> TrainingConfig:
    return TrainingConfig(epochs=2, batch_size=8, learning_rate=0.01, optimizer="adam", seed=0)


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-6, indices=None) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. ``array`` (in place).

    ``indices`` restricts the differences to those coordinates (tuples into
    ``array``); the other entries of the result stay zero.
    """
    grad = np.zeros_like(array)
    if indices is None:
        indices = list(np.ndindex(array.shape))
    for index in indices:
        original = array[index]
        array[index] = original + eps
        upper = fn()
        array[index] = original - eps
        lower = fn()
        array[index] = original
        grad[index] = (upper - lower) / (2 * eps)
    return grad


@pytest.fixture()
def gradcheck():
    """Fixture exposing the numeric-gradient helper to tests."""
    return numeric_gradient
