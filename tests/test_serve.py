"""Tests for the batch inference subsystem (:mod:`repro.serve`)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import nn
from repro.corpus.bags import SentenceExample
from repro.exceptions import ConfigurationError, DataError
from repro.experiments.pipeline import train_and_evaluate
from repro.serve import (
    PredictionRequest,
    PredictionService,
    batched_predict_probabilities,
    merge_encoded_bags,
)


class TestMergeEncodedBags:
    def test_offsets_and_shapes(self, nyt_context):
        bags = nyt_context.test_encoded[:5]
        batch = merge_encoded_bags(bags)
        assert batch.num_bags == 5
        assert batch.num_sentences == sum(bag.num_sentences for bag in bags)
        assert batch.merged.token_ids.shape[1] == max(bag.max_length for bag in bags)
        assert np.array_equal(batch.sentence_counts, [bag.num_sentences for bag in bags])

    def test_rows_preserved(self, nyt_context):
        bags = nyt_context.test_encoded[:5]
        batch = merge_encoded_bags(bags)
        for i, bag in enumerate(bags):
            start, end = batch.offsets[i], batch.offsets[i + 1]
            width = bag.max_length
            assert np.array_equal(batch.merged.token_ids[start:end, :width], bag.token_ids)
            assert np.array_equal(batch.merged.mask[start:end, :width], bag.mask)
            # Padding beyond the bag's own width uses the encoder's pad values.
            assert not batch.merged.mask[start:end, width:].any()
            assert (batch.merged.segment_ids[start:end, width:] == -1).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            merge_encoded_bags([])


# Every aggregation/encoder/head combination the factories can build.
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]


class TestBatchedForwardParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_batch_matches_single(self, nyt_context, method_name):
        method, _ = train_and_evaluate(nyt_context, method_name)
        model = method.model
        bags = nyt_context.test_encoded[:24]
        single = np.stack([model.predict_probabilities(bag) for bag in bags])
        batched = batched_predict_probabilities(model, bags)
        assert batched.shape == single.shape
        np.testing.assert_allclose(batched, single, atol=1e-10)

    def test_single_bag_batch(self, trained_pa_tmr, nyt_context):
        model = trained_pa_tmr[0].model
        bag = nyt_context.test_encoded[0]
        batched = batched_predict_probabilities(model, [bag])
        np.testing.assert_allclose(batched[0], model.predict_probabilities(bag), atol=1e-10)

    def test_empty_batch(self, trained_pa_tmr):
        model = trained_pa_tmr[0].model
        result = batched_predict_probabilities(model, [])
        assert result.shape == (0, model.num_relations)

    def test_training_mode_restored(self, trained_pa_tmr, nyt_context):
        model = trained_pa_tmr[0].model
        model.train()
        batched_predict_probabilities(model, nyt_context.test_encoded[:2])
        assert model.training
        model.eval()


class TestInferenceKernels:
    """The conv and pooling ops the batched forward serves through, against naive loops."""

    def test_conv_window_gather_matches_conv1d(self):
        # F.conv1d's im2col gather + matmul against a direct sliding window.
        from repro.nn import functional as F

        rng = np.random.default_rng(1)
        conv = nn.Conv1d(4, 6, kernel_size=3, rng=rng)
        x = rng.standard_normal((2, 9, 4))
        got = F.conv1d(nn.Tensor(x), conv.weight, conv.bias, padding=1).data

        padded = np.zeros((2, 9 + 2, 4))
        padded[:, 1:10, :] = x
        expected = np.zeros((2, 9, 6))
        for position in range(9):
            window = padded[:, position:position + 3, :]
            expected[:, position, :] = (
                np.einsum("bwc,owc->bo", window, conv.weight.data) + conv.bias.data
            )
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_segment_max_matches_naive(self):
        from repro.nn import functional as F

        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 6, 2))
        segments = np.array(
            [[0, 0, 1, 1, 2, 2], [0, 1, 2, -1, -1, -1], [1, 1, 1, -1, -1, -1]]
        )
        got = F.piecewise_max_pool(nn.Tensor(x), segments, num_segments=3).data
        assert got.shape == (3, 6)
        for row in range(3):
            for seg in range(3):
                positions = np.flatnonzero(segments[row] == seg)
                # An empty segment pools to exactly zero.
                expected = x[row, positions].max(axis=0) if positions.size else np.zeros(2)
                np.testing.assert_array_equal(got[row, seg * 2:(seg + 1) * 2], expected)


class TestServeDtype:
    """``dtype="float32"`` serves within 1e-5 of float64 with the same labels."""

    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_float32_close_to_float64_same_argmax(self, nyt_context, method_name):
        method, _ = train_and_evaluate(nyt_context, method_name)
        model = method.model
        bags = nyt_context.test_encoded[:24]
        reference = PredictionService.from_context(nyt_context, model).predict_encoded(bags)
        f32_service = PredictionService.from_context(nyt_context, model, dtype="float32")
        f32 = f32_service.predict_encoded(bags)

        assert f32.dtype == np.float64  # float64 final reduction
        np.testing.assert_allclose(f32, reference, atol=1e-5)
        assert np.array_equal(f32.argmax(axis=1), reference.argmax(axis=1))
        # The service casts a private copy; the caller's model is untouched.
        assert f32_service.model is not model
        assert f32_service.model.parameter_dtype() == np.float32
        assert model.parameter_dtype() == np.float64

    def test_float64_serves_the_callers_model(self, nyt_context, trained_pa_tmr):
        model = trained_pa_tmr[0].model
        service = PredictionService.from_context(nyt_context, model)
        assert service.dtype == "float64"
        assert service.model is model  # no cast, no copy

    def test_unknown_dtype_rejected(self, nyt_context, trained_pa_tmr):
        with pytest.raises(ConfigurationError, match="float16"):
            PredictionService.from_context(
                nyt_context, trained_pa_tmr[0].model, dtype="float16"
            )


class TestPredictionService:
    @pytest.fixture()
    def service(self, nyt_context, trained_pa_tmr):
        return PredictionService.from_context(nyt_context, trained_pa_tmr[0].model)

    def test_predict_encoded_matches_per_bag(self, service, nyt_context):
        bags = nyt_context.test_encoded[:30]
        expected = np.stack([service.model.predict_probabilities(bag) for bag in bags])
        actual = service.predict_encoded(bags)
        np.testing.assert_allclose(actual, expected, atol=1e-10)

    def test_chunking_preserves_order(self, nyt_context, trained_pa_tmr):
        small_chunks = PredictionService.from_context(
            nyt_context, trained_pa_tmr[0].model, batch_size=3
        )
        one_chunk = PredictionService.from_context(
            nyt_context, trained_pa_tmr[0].model, batch_size=1024
        )
        bags = nyt_context.test_encoded[:20]
        np.testing.assert_allclose(
            small_chunks.predict_encoded(bags), one_chunk.predict_encoded(bags), atol=1e-12
        )

    def test_predict_batch_from_known_pair(self, service, nyt_context):
        bag = next(b for b in nyt_context.bundle.test.bags if not b.is_na())
        request = PredictionRequest(
            head=bag.head_name,
            tail=bag.tail_name,
            sentences=list(bag.sentences),
        )
        [result] = service.predict_batch([request], top_k=3)
        assert result.head == bag.head_name
        assert len(result.predictions) == 3
        assert result.top.confidence == pytest.approx(max(result.probabilities))
        assert result.probabilities.shape == (nyt_context.num_relations,)
        assert np.isclose(result.probabilities.sum(), 1.0)
        names = {p.relation_name for p in result.predictions}
        assert len(names) == 3

    def test_raw_text_sentences(self, service, nyt_context):
        bag = next(b for b in nyt_context.bundle.test.bags if not b.is_na())
        head, tail = bag.head_name, bag.tail_name
        request = PredictionRequest(
            head=head, tail=tail, sentences=[f"the report said {head} works with {tail} ."]
        )
        result = service.predict(request)
        assert result.predictions
        encoded = service.encode_request(request)
        sentence = service._sentence_from_text(
            f"the report said {head} works with {tail} .", head, tail
        )
        assert sentence.tokens[sentence.head_position] == head
        assert sentence.tokens[sentence.tail_position] == tail
        assert encoded.head_entity_id == nyt_context.bundle.kb.entity_by_name(head).entity_id

    def test_raw_text_entity_not_matched_inside_longer_word(self, service):
        sentence = service._sentence_from_text("the artist lives in art Paris .", "art", "Paris")
        assert sentence.tokens[sentence.head_position] == "art"
        # "artist" was tokenised normally, not split around the embedded "art".
        assert "artist" in sentence.tokens
        assert "ist" not in sentence.tokens

    def test_raw_text_missing_entity_rejected(self, service):
        request = PredictionRequest(
            head="someone", tail="somewhere", sentences=["a sentence about nothing ."]
        )
        with pytest.raises(DataError):
            service.encode_request(request)

    def test_unknown_entities_fall_back(self, service):
        request = PredictionRequest(
            head="entity_never_seen",
            tail="other_never_seen",
            sentences=[
                SentenceExample(
                    tokens=["entity_never_seen", "visited", "other_never_seen", "."],
                    head_position=0,
                    tail_position=2,
                )
            ],
        )
        encoded = service.encode_request(request)
        assert encoded.head_entity_id == -1
        assert encoded.tail_entity_id == -1
        result = service.predict(request)
        assert np.isclose(result.probabilities.sum(), 1.0)

    def test_empty_request_rejected(self, service):
        with pytest.raises(DataError):
            service.encode_request(PredictionRequest(head="a", tail="b", sentences=[]))

    def test_stats_counted(self, nyt_context, trained_pa_tmr):
        service = PredictionService.from_context(
            nyt_context, trained_pa_tmr[0].model, batch_size=8
        )
        bags = nyt_context.test_encoded[:20]
        service.predict_encoded(bags)
        assert service.stats.requests == 20
        assert service.stats.batches == 3
        assert service.stats.sentences == sum(bag.num_sentences for bag in bags)


class TestEmptyInputFastPaths:
    """Zero-request inputs short-circuit before batch assembly.

    Regression tests: an empty request list used to walk into the encode
    loop, and an empty bag list must never reach :func:`merge_encoded_bags`
    / :func:`merge_store_batch` (both reject empty input by contract — a
    merged batch with zero rows has no well-defined padded width).
    """

    @pytest.fixture()
    def service(self, nyt_context, trained_pa_tmr):
        return PredictionService.from_context(nyt_context, trained_pa_tmr[0].model)

    def test_predict_batch_empty_returns_empty_list(self, service):
        before = service.stats.batches
        assert service.predict_batch([]) == []
        assert service.stats.batches == before

    def test_predict_encoded_empty_returns_zero_rows(self, service):
        before = service.stats.batches
        result = service.predict_encoded([])
        assert result.shape == (0, service.model.num_relations)
        assert result.dtype == np.float64
        # The fast path never touched batch assembly or the forward pass.
        assert service.stats.batches == before

    def test_merge_store_batch_empty_indices_raises_typed_error(self, nyt_context):
        from repro.batch.merging import merge_store_batch

        with pytest.raises(DataError):
            merge_store_batch(nyt_context.test_encoded, np.array([], dtype=np.int64))

    def test_predict_encoded_empty_store_selection(self, service, nyt_context):
        empty_view = nyt_context.test_encoded[0:0]
        result = service.predict_encoded(empty_view)
        assert result.shape == (0, service.model.num_relations)


class TestPublicDocstrings:
    def test_every_public_symbol_is_documented(self):
        undocumented = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            symbol = getattr(repro, name)
            if not (getattr(symbol, "__doc__", None) or "").strip():
                undocumented.append(name)
        assert not undocumented, f"symbols without docstrings: {undocumented}"

    def test_serve_symbols_are_documented(self):
        import repro.serve as serve

        for name in serve.__all__:
            assert (getattr(serve, name).__doc__ or "").strip(), name
