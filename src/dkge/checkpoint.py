"""Versioned binary checkpoints for parameter stores.

The payload is a plain pickled dict of arrays and metadata, written through
a temp file and renamed into place, so a reader never sees a half-written
checkpoint.  Two runs that produce the same parameters produce byte-identical
files: nothing time- or path-dependent enters the payload.

Besides the parameters, the model settings and the context signatures, a
checkpoint holds the joint embedding of every object, ``ent_star`` (n_e, d)
and ``rel_star`` (n_r, d), with the digest of the snapshot they were encoded
on.  That adds (n_e + n_r) * d * 8 bytes and lets ``eval`` and ``answer`` on
that snapshot score without building a context.  A store that never had
them saves ``None`` in their place.  Format version 3.  Loading raises
IntegrityError, naming the file, when the payload cannot be unpickled, is
not a dict, lacks a key or has another version, and naming the key too when
an array is not float64 or its shape disagrees with ``dim``, the name tuples
or the layer count, or when the joint tables and their digest are neither
all ``None`` nor all present.  The payload is still unpickled, so a
checkpoint from an untrusted source can run code.
"""
from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from .agcn import AgcnParams
from .errors import IntegrityError
from .model import ParameterStore

FORMAT_VERSION = 3


def save_checkpoint(store: ParameterStore, path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "dim": store.dim,
        "entity_names": store.entity_names,
        "relation_names": store.relation_names,
        "ent_know": np.ascontiguousarray(store.ent_know),
        "ent_ctx": np.ascontiguousarray(store.ent_ctx),
        "rel_know": np.ascontiguousarray(store.rel_know),
        "rel_ctx": np.ascontiguousarray(store.rel_ctx),
        "entity_weights": [np.ascontiguousarray(w) for w in store.entity_agcn.weights],
        "entity_attention": np.ascontiguousarray(store.entity_agcn.attention),
        "relation_weights": [np.ascontiguousarray(w) for w in store.relation_agcn.weights],
        "relation_attention": np.ascontiguousarray(store.relation_agcn.attention),
        "ent_gate_pre": np.ascontiguousarray(store.ent_gate_pre),
        "rel_gate_pre": np.ascontiguousarray(store.rel_gate_pre),
        "cap": store.cap,
        "seed": store.seed,
        "max_midpoints": store.max_midpoints,
        "signatures": sorted(
            (kind, name, sig) for (kind, name), sig in store.signatures.items()),
        "ent_star": store.ent_star,
        "rel_star": store.rel_star,
        "joint_digest": store.joint_digest,
    }
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."),
                                    prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=4)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _check_arrays(path, payload: dict) -> None:
    """Raise IntegrityError naming the first key that disagrees with the
    rest: ``dim`` not a positive int, the joint tables and their digest
    partly None, or an array that is not float64 of the shape ``dim``, the
    names and the layer count imply."""
    d = payload["dim"]
    if type(d) is not int or d < 1:
        raise IntegrityError(f"{path}: checkpoint dim is {d!r}, not a positive int")
    n_e, n_r = len(payload["entity_names"]), len(payload["relation_names"])
    stars = ("ent_star", "rel_star", "joint_digest")
    if len({payload[key] is None for key in stars}) != 1:
        raise IntegrityError(f"{path}: checkpoint {', '.join(stars)} must be all "
                             f"None or all present")
    digest = payload["joint_digest"]
    if digest is not None and not isinstance(digest, str):
        raise IntegrityError(f"{path}: checkpoint joint_digest is not a string")
    shapes = {"ent_know": (n_e, d), "ent_ctx": (n_e, d), "rel_know": (n_r, d),
              "rel_ctx": (n_r, d), "entity_attention": (d,), "relation_attention": (d,),
              "ent_gate_pre": (d,), "rel_gate_pre": (d,)}
    if payload["ent_star"] is not None:
        shapes.update(ent_star=(n_e, d), rel_star=(n_r, d))
    arrays = [(key, payload[key], shape) for key, shape in shapes.items()]
    for key in ("entity_weights", "relation_weights"):
        weights = payload[key]
        if not isinstance(weights, list) or not 1 <= len(weights) <= 2:
            raise IntegrityError(f"{path}: checkpoint {key} is not a list of 1 or 2 layers")
        arrays += [(f"{key}[{l}]", w, (d, d)) for l, w in enumerate(weights)]
    for key, a, shape in arrays:
        if not isinstance(a, np.ndarray) or a.dtype != np.float64 or a.shape != shape:
            got = (f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray)
                   else type(a).__name__)
            raise IntegrityError(f"{path}: checkpoint {key} is {got}, "
                                 f"expected float64 {shape}")


def load_checkpoint(path) -> ParameterStore:
    with Path(path).open("rb") as fh:
        try:
            payload = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"{path}: not a readable checkpoint: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError(f"{path}: checkpoint holds a {type(payload).__name__}, "
                             f"not a dict")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise IntegrityError(f"{path}: unsupported checkpoint version: {version}")
    try:
        _check_arrays(path, payload)
        return ParameterStore(
            dim=payload["dim"],
            entity_names=tuple(payload["entity_names"]),
            relation_names=tuple(payload["relation_names"]),
            ent_know=payload["ent_know"],
            ent_ctx=payload["ent_ctx"],
            rel_know=payload["rel_know"],
            rel_ctx=payload["rel_ctx"],
            entity_agcn=AgcnParams(payload["entity_weights"], payload["entity_attention"]),
            relation_agcn=AgcnParams(payload["relation_weights"],
                                     payload["relation_attention"]),
            ent_gate_pre=payload["ent_gate_pre"],
            rel_gate_pre=payload["rel_gate_pre"],
            cap=payload["cap"],
            seed=payload["seed"],
            max_midpoints=payload["max_midpoints"],
            signatures={(kind, name): sig for kind, name, sig in payload["signatures"]},
            ent_star=payload["ent_star"],
            rel_star=payload["rel_star"],
            joint_digest=payload["joint_digest"],
        )
    except KeyError as exc:
        raise IntegrityError(f"{path}: checkpoint lacks key {exc}") from exc
