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
not a dict, lacks a key or has another version.  The payload is still
unpickled, so a checkpoint from an untrusted source can run code.
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
