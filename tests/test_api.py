"""Tests for the top-level :class:`repro.api.Session` facade."""

from __future__ import annotations

import pytest

import repro
from repro.api import Session
from repro.exceptions import ConfigurationError, UsageError
from repro.experiments.results import ExperimentResult


class TestSessionBasics:
    def test_exported_at_top_level(self):
        assert repro.Session is Session
        assert repro.ExperimentResult is ExperimentResult

    def test_profile_resolution(self):
        assert Session(profile="tiny").profile.name == "tiny"
        assert Session().profile.name == "small"
        custom = repro.ScaleProfile.tiny()
        assert Session(profile=custom).profile is custom
        with pytest.raises(ConfigurationError, match="unknown profile"):
            Session(profile="galactic")

    def test_run_returns_structured_result(self):
        session = Session(profile="tiny", seed=4)
        result = session.run("table3")
        assert isinstance(result, ExperimentResult)
        assert result.profile == "tiny"
        assert result.seed == 4
        assert "Table III" in result.report

    def test_experiments_listing(self):
        names = [spec.name for spec in Session(profile="tiny").experiments()]
        assert "table4" in names and "case_study" in names


class TestSessionLifecycle:
    def test_context_is_cached_per_dataset(self, tiny_profile):
        session = Session(profile=tiny_profile)
        first = session.context("nyt")
        assert session.context("nyt") is first
        assert first.dataset_name == "SynthNYT"

    def test_cache_dir_builds_artifact_cache(self, tmp_path):
        session = Session(profile="tiny", cache_dir=tmp_path / "cache")
        assert session.cache is not None
        session.context("nyt")
        # All four expensive stages were persisted for future sessions.
        assert session.cache.stats.misses == 4
        warm = Session(profile="tiny", cache_dir=tmp_path / "cache")
        warm.context("nyt")
        assert warm.cache.stats.hits == 4

    def test_train_and_serve_roundtrip(self, tiny_profile, tmp_path):
        session = Session(profile=tiny_profile)
        method, evaluation = session.train("mintz")
        assert 0.0 <= evaluation.auc <= 1.0
        # Feature-based methods have no neural model to checkpoint; the
        # facade raises the same UsageError family as the CLI (exit code 2).
        with pytest.raises(UsageError, match="checkpointable"):
            session.save_checkpoint(tmp_path / "ckpt", method)

    def test_train_dtype_bypasses_method_cache(self, tiny_profile):
        session = Session(profile=tiny_profile)
        cached_method, _ = session.train("pcnn")
        assert session.train("pcnn")[0] is cached_method  # per-method cache
        assert session.train("pcnn", dtype="float64")[0] is cached_method
        f32_method, f32_eval = session.train("pcnn", dtype="float32")
        # Another dtype trains fresh and must not overwrite or reuse the
        # cached float64-trained method.
        assert f32_method is not cached_method
        assert 0.0 <= f32_eval.auc <= 1.0
        assert session.train("pcnn")[0] is cached_method
        # The context's configured dtype is restored afterwards.
        assert session.context("nyt").training_config.dtype == "float64"
