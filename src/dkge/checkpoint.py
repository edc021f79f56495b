"""Versioned binary checkpoints for parameter stores.

The payload is a plain pickled dict of arrays and metadata, written through
a temp file and renamed into place, so a reader never sees a half-written
checkpoint; the file gets the mode a plain ``open()`` gives a new file, and
a failed save raises OSError naming the checkpoint's path, not the temp
file's.  Two runs that produce the same parameters produce
byte-identical files: nothing time- or path-dependent enters the payload,
and every array is written with numpy's own float64 dtype instance.
Pickle memoizes objects by identity, and an unpickled array carries a
dtype instance of its own, so a store mixing loaded and fresh arrays would
otherwise write one dtype record more.

Besides the parameters and the model settings, a checkpoint holds every
object's joint embedding, ``ent_star`` (n_e, d) and ``rel_star`` (n_r, d),
with the digest of the snapshot they were encoded on; with these, ``eval``
and ``answer`` on that snapshot score without building a context.  A store
that never had joint tables saves ``None`` in their place.  Format version
6.  The midpoint limit of relation contexts is a constant of the code
(``contexts.MAX_MIDPOINTS``), not a stored setting; version 5 stored one,
so a version-5 file, which may have been trained under another limit, is
refused like every other version.  Loading raises IntegrityError, naming
the file, when the payload cannot be unpickled, is not a dict, lacks a key
or has another version, and naming the key too when the names are not
distinct strs, a setting is not an int in its range, an array's dtype or
shape disagrees with ``dim``, the names or the layer count, an array holds
a NaN or an infinity, or the joint tables and their digest are neither all
``None`` nor all present.  The payload is still unpickled, so a checkpoint
from an untrusted source can run code.
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

FORMAT_VERSION = 6
# (key, least value) of the int settings
SETTINGS = (("dim", 1), ("cap", 1), ("seed", 0))


def _canonical(a: np.ndarray | None) -> np.ndarray | None:
    """``a`` C-contiguous, with numpy's own float64 dtype instance."""
    return None if a is None else np.ascontiguousarray(a).view(np.float64)


def save_checkpoint(store: ParameterStore, path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "dim": store.dim,
        "entity_names": store.entity_names,
        "relation_names": store.relation_names,
        "ent_know": _canonical(store.ent_know),
        "ent_ctx": _canonical(store.ent_ctx),
        "rel_know": _canonical(store.rel_know),
        "rel_ctx": _canonical(store.rel_ctx),
        "entity_weights": [_canonical(w) for w in store.entity_agcn.weights],
        "entity_attention": _canonical(store.entity_agcn.attention),
        "relation_weights": [_canonical(w) for w in store.relation_agcn.weights],
        "relation_attention": _canonical(store.relation_agcn.attention),
        "ent_gate_pre": _canonical(store.ent_gate_pre),
        "rel_gate_pre": _canonical(store.rel_gate_pre),
        "cap": store.cap,
        "seed": store.seed,
        "ent_star": _canonical(store.ent_star),
        "rel_star": _canonical(store.rel_star),
        "joint_digest": store.joint_digest,
    }
    path = Path(path)
    try:
        # a file of its own temp directory, so open() gives it the mode any
        # new file gets (0666 less the umask), not mkstemp's 0600
        tmp_dir = tempfile.mkdtemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        tmp_name = os.path.join(tmp_dir, path.name)
        try:
            with open(tmp_name, "wb") as fh:
                pickle.dump(payload, fh, protocol=4)
            os.replace(tmp_name, path)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            os.rmdir(tmp_dir)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _check_payload(path, payload: dict) -> None:
    """Raise IntegrityError naming the first key that disagrees with the
    rest: names that are not distinct strs, a setting that is not an int in
    its range, the joint tables and their digest partly None, an array
    whose dtype or shape is not the one ``dim``, the names and the layer
    count imply, or an array with a non-finite entry."""
    for key in ("entity_names", "relation_names"):
        names = payload[key]
        if not (isinstance(names, (tuple, list)) and all(type(n) is str for n in names)
                and len(set(names)) == len(names)):
            raise IntegrityError(f"{path}: checkpoint {key} is not a sequence of "
                                 f"distinct strs")
    for key, least in SETTINGS:
        value = payload[key]
        if type(value) is not int or value < least:
            raise IntegrityError(f"{path}: checkpoint {key} is {value!r}, "
                                 f"not an int >= {least}")
    d = payload["dim"]
    n_e, n_r = len(payload["entity_names"]), len(payload["relation_names"])
    stars = ("ent_star", "rel_star", "joint_digest")
    if len({payload[key] is None for key in stars}) != 1:
        raise IntegrityError(f"{path}: checkpoint {', '.join(stars)} must be all "
                             f"None or all present")
    digest = payload["joint_digest"]
    if digest is not None and not isinstance(digest, str):
        raise IntegrityError(f"{path}: checkpoint joint_digest is not a string")
    f8 = np.dtype(np.float64)
    table = {"ent_know": (f8, (n_e, d)), "ent_ctx": (f8, (n_e, d)),
             "rel_know": (f8, (n_r, d)), "rel_ctx": (f8, (n_r, d)),
             "entity_attention": (f8, (d,)), "relation_attention": (f8, (d,)),
             "ent_gate_pre": (f8, (d,)), "rel_gate_pre": (f8, (d,))}
    if payload["ent_star"] is not None:
        table.update(ent_star=(f8, (n_e, d)), rel_star=(f8, (n_r, d)))
    arrays = [(key, payload[key], dtype, shape) for key, (dtype, shape) in table.items()]
    for key in ("entity_weights", "relation_weights"):
        weights = payload[key]
        if not isinstance(weights, list) or not 1 <= len(weights) <= 2:
            raise IntegrityError(f"{path}: checkpoint {key} is not a list of 1 or 2 layers")
        arrays += [(f"{key}[{l}]", w, f8, (d, d)) for l, w in enumerate(weights)]
    for key, a, dtype, shape in arrays:
        if not isinstance(a, np.ndarray) or a.dtype != dtype or a.shape != shape:
            got = (f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray)
                   else type(a).__name__)
            raise IntegrityError(f"{path}: checkpoint {key} is {got}, "
                                 f"expected {dtype} {shape}")
        if not np.isfinite(a).all():
            raise IntegrityError(f"{path}: checkpoint {key} holds a non-finite entry")


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
        _check_payload(path, payload)
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
            ent_star=payload["ent_star"],
            rel_star=payload["rel_star"],
            joint_digest=payload["joint_digest"],
        )
    except KeyError as exc:
        raise IntegrityError(f"{path}: checkpoint lacks key {exc}") from exc
