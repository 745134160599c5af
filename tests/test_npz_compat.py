"""Artifacts in the earlier deflated npz layout still load unchanged.

:func:`repro.utils.serialization.save_npz` writes stored (uncompressed) zip
members; files written before that by ``np.savez_compressed`` hold the same
arrays deflated.  Every loader must read both layouts to the same values, and
a checkpoint whose ``weights.npz`` is deflated must serve the same
probabilities once its manifest digest matches the file.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from repro.corpus.store import _ALL_COLUMNS, CorpusStore
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.proximity import EntityProximityGraph
from repro.serve import PredictionService
from repro.utils.checkpoint import MANIFEST_FILE, WEIGHTS_FILE
from repro.utils.serialization import load_npz, sha256_file


def _recompress(path) -> None:
    """Rewrite an npz in place with ``np.savez_compressed`` (same keys/arrays)."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as archive:
        assert {entry.compress_type for entry in archive.infolist()} == {zipfile.ZIP_DEFLATED}


def _assert_arrays_equal(ours, theirs) -> None:
    assert ours.keys() == theirs.keys()
    for key in ours:
        assert ours[key].dtype == theirs[key].dtype, key
        np.testing.assert_array_equal(ours[key], theirs[key])


def test_load_npz_reads_deflated_files(tmp_path):
    arrays = {
        "floats": np.linspace(0.0, 1.0, 257),
        "ints": np.arange(64, dtype=np.int64).reshape(8, 8),
        "names": np.array(["a", "bb", "ccc"], dtype=np.str_),
        "b0/nested": np.array([3, 1, 2], dtype=np.int32),
    }
    np.savez_compressed(tmp_path / "old.npz", **arrays)
    _assert_arrays_equal(load_npz(tmp_path / "old.npz"), arrays)


def test_graph_loads_from_deflated_file(nyt_context, tmp_path):
    path = tmp_path / "graph.npz"
    nyt_context.proximity_graph.save(path)
    stored = EntityProximityGraph.load(path)
    _recompress(path)
    deflated = EntityProximityGraph.load(path)
    assert deflated.vertices == stored.vertices
    for ours, theirs in zip(deflated.csr_arrays(), stored.csr_arrays()):
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)
    np.testing.assert_array_equal(deflated.degrees, stored.degrees)


def test_embeddings_load_from_deflated_file(nyt_context, tmp_path):
    path = tmp_path / "embeddings.npz"
    nyt_context.entity_embeddings.save(path)
    _recompress(path)
    loaded = EntityEmbeddings.load(path)
    assert loaded.names == nyt_context.entity_embeddings.names
    np.testing.assert_array_equal(loaded.vectors, nyt_context.entity_embeddings.vectors)


def test_corpus_store_loads_from_deflated_npz(nyt_context, tmp_path):
    path = tmp_path / "corpus.npz"
    original = nyt_context.train_encoded
    original.save(path)
    _recompress(path)
    loaded = CorpusStore.load(path)
    assert len(loaded) == len(original)
    for name in _ALL_COLUMNS:
        np.testing.assert_array_equal(
            np.asarray(getattr(loaded, name)), np.asarray(getattr(original, name))
        )


def test_checkpoint_with_deflated_weights_serves_the_same(
    nyt_context, trained_pa_tmr, tmp_path
):
    path = trained_pa_tmr[0].model.save(
        tmp_path / "ckpt",
        encoder=nyt_context.bag_encoder,
        schema=nyt_context.bundle.schema,
        kb=nyt_context.bundle.kb,
    )
    bags = nyt_context.test_encoded[:16]
    expected = PredictionService.from_checkpoint(path).predict_encoded(bags)

    _recompress(path / WEIGHTS_FILE)
    manifest_path = path / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["files"][WEIGHTS_FILE] = sha256_file(path / WEIGHTS_FILE)
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")

    served = PredictionService.from_checkpoint(path).predict_encoded(bags)
    np.testing.assert_array_equal(served, expected)
