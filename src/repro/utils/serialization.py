"""Checkpoint and artifact serialisation helpers (npz / json / file digests)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

PathLike = Union[str, Path]


def save_npz(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Save a mapping of named arrays to an uncompressed ``.npz`` file.

    Members are stored uncompressed (``ZIP_STORED``): on the float-heavy
    artifacts this library writes (weights, embeddings, graph and corpus
    columns) deflate costs far more CPU than the bytes it saves.
    :func:`load_npz` (``np.load``) reads stored and deflated archives alike,
    so files written by ``np.savez_compressed`` still load.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # npz keys cannot contain '/' cleanly on load via attribute access, but the
    # dict interface used below handles arbitrary names; we keep names as-is.
    np.savez(path, **{str(k): np.asarray(v) for k, v in arrays.items()})
    return path


def load_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a mapping of named arrays saved by :func:`save_npz`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        return {key: np.array(data[key]) for key in data.files}


def sha256_file(path: PathLike) -> str:
    """Hex SHA-256 digest of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _NumpyEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars and arrays."""

    def default(self, obj: Any) -> Any:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def save_json(path: PathLike, payload: Any, indent: int = 2) -> Path:
    """Serialise ``payload`` to JSON, accepting numpy types transparently."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, cls=_NumpyEncoder)
    return path


def load_json(path: PathLike) -> Any:
    """Load a JSON document saved by :func:`save_json`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
