"""Versioned binary checkpoints for parameter stores.

The payload is a plain pickled dict of arrays and metadata, written through
a temp file and renamed into place, so a reader never sees a half-written
checkpoint; the file gets the mode a plain ``open()`` gives a new file, and
a failed save raises OSError naming the checkpoint's path, not the temp
file's.  Two runs that produce the same parameters produce
byte-identical files: nothing time- or path-dependent enters the payload,
and every array is written with numpy's own float64 or int64 dtype
instance.  Pickle memoizes objects by identity, and an array unpickled by
numpy carries a dtype instance of its own, so a store mixing such arrays
and fresh ones would otherwise write one dtype record more.

Besides the parameters and the model settings, a checkpoint holds every
object's joint embedding, ``ent_star`` (n_e, d) and ``rel_star`` (n_r, d),
with the snapshot they were encoded on: its digest ``joint_digest``, its
``triple_ids`` (n, 3) int64 in file order, its ``duplicates_collapsed`` and
the ``file_digest`` of the train.txt it was loaded from (None for a
snapshot built in memory).  With these, ``eval`` and ``answer`` on that
snapshot score without building a context, and they, and ``update`` on its
old directory, take the snapshot rebuilt from the checkpoint instead of
parsing a train.txt whose bytes are unchanged (``kg_store.load_snapshot``).
A store that never had joint tables saves ``None`` in all five places.

Format version 7.  Version 6 lacked the snapshot fields, and version 5
stored a midpoint limit that is now a constant of the code
(``contexts.MAX_MIDPOINTS``); both are refused like every other version.
Loading raises IntegrityError, naming the file, when the payload cannot be
unpickled, is not a dict, lacks a key or has another version, and naming
the key too when the names are not distinct strs, a setting is not an int
in its range, an array's dtype or shape disagrees with ``dim``, the names
or the layer count, an array holds a NaN or an infinity, the joint fields
are neither all ``None`` nor all present, or the stored triples fail
``Snapshot``'s own checks or do not have the digest ``joint_digest``.

The loader unpickles every global a file names as an inert record
(``_Unpickler``), so loading runs no code the file names: an array record
becomes an array only when its dtype record is that of a native f8 or i8
array, and numpy then gets its own dtype, never the file's dtype state.
A changed byte inside an array's data is not detected.
"""
from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from .agcn import AgcnParams
from .errors import IntegrityError
from .kg_store import Snapshot
from .model import ParameterStore

FORMAT_VERSION = 7
# (key, least value) of the int settings
SETTINGS = (("dim", 1), ("cap", 1), ("seed", 0))
# the joint tables and the snapshot they were encoded on: all None or none
JOINT_KEYS = ("ent_star", "rel_star", "joint_digest", "triple_ids", "duplicates_collapsed")


def _canonical(a: np.ndarray | None, dtype=np.float64) -> np.ndarray | None:
    """``a`` C-contiguous, with numpy's own dtype instance of ``dtype``."""
    return None if a is None else np.ascontiguousarray(a).view(dtype)


def save_checkpoint(store: ParameterStore, path) -> None:
    g = store.joint_snapshot
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
        "triple_ids": None if g is None else _canonical(g.triple_ids, np.int64),
        "duplicates_collapsed": None if g is None else g.duplicates_collapsed,
        "file_digest": None if g is None else g.file_digest,
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
    its range, the joint fields partly None, a digest that is not a str, an
    array whose dtype or shape is not the one ``dim``, the names and the
    layer count imply, or an array with a non-finite entry.  The stored
    triples are checked as the snapshot they rebuild (``_joint_snapshot``)."""
    for key in ("entity_names", "relation_names"):
        names = payload[key]
        if not (isinstance(names, (tuple, list)) and set(map(type, names)) <= {str}
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
    joint = payload["ent_star"] is not None
    if any((payload[key] is not None) != joint for key in JOINT_KEYS):
        raise IntegrityError(f"{path}: checkpoint {', '.join(JOINT_KEYS)} must be all "
                             f"None or all present")
    if payload["file_digest"] is not None and not joint:
        raise IntegrityError(f"{path}: checkpoint file_digest is set without joint tables")
    for key in ("joint_digest", "file_digest"):
        if payload[key] is not None and not isinstance(payload[key], str):
            raise IntegrityError(f"{path}: checkpoint {key} is not a string")
    dups = payload["duplicates_collapsed"]
    if joint and (type(dups) is not int or dups < 0):
        raise IntegrityError(f"{path}: checkpoint duplicates_collapsed is {dups!r}, "
                             f"not an int >= 0")
    f8 = np.dtype(np.float64)
    table = {"ent_know": (f8, (n_e, d)), "ent_ctx": (f8, (n_e, d)),
             "rel_know": (f8, (n_r, d)), "rel_ctx": (f8, (n_r, d)),
             "entity_attention": (f8, (d,)), "relation_attention": (f8, (d,)),
             "ent_gate_pre": (f8, (d,)), "rel_gate_pre": (f8, (d,))}
    if joint:
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


def _joint_snapshot(path, payload: dict, entity_names: tuple[str, ...],
                    relation_names: tuple[str, ...]) -> Snapshot | None:
    """The snapshot the joint tables were encoded on, rebuilt from the
    stored triples and the store's names: the one parsing its train.txt
    gave, field for field.  None without joint tables."""
    if payload["triple_ids"] is None:
        return None
    try:
        snapshot = Snapshot(payload["triple_ids"], entity_names, relation_names,
                            payload["duplicates_collapsed"], payload["file_digest"])
    except ValueError as exc:
        raise IntegrityError(f"{path}: checkpoint triple_ids: {exc}") from None
    if snapshot.digest != payload["joint_digest"]:
        raise IntegrityError(f"{path}: checkpoint triple_ids do not have the "
                             f"digest joint_digest")
    return snapshot


class _Record:
    """Whatever a pickle calls, kept as the arguments and the state the
    pickle gives it: the unpickler calls nothing that a file names."""

    def __init__(self, *args):
        self.args = args

    def __setstate__(self, state):
        self.state = state


class _DtypeRecord(_Record):
    pass


# the dtypes of the arrays written here, by name, and the state that every
# native little-endian number dtype pickles
_DTYPES = {"f8": np.float64, "i8": np.int64}
_DTYPE_STATE = (3, "<", None, None, None, -1, -1, 0)


class _ArrayRecord(_Record):
    """An array as numpy pickles it; ``array`` is the writeable array of a
    C-ordered f8 or i8 one, None for anything else.  numpy sets it up over
    the pickle's raw bytes, as its own unpickling does, but with numpy's
    own dtype instead of the dtype state the file holds."""

    array = None

    def __setstate__(self, state):
        try:
            version, shape, dtype, fortran, raw = state
            if (version == 1 and fortran is False and type(raw) is bytes
                    and type(dtype) is _DtypeRecord and dtype.args[1:] == (False, True)
                    and dtype.state == _DTYPE_STATE and dtype.args[0] in _DTYPES
                    and type(shape) is tuple and all(type(n) is int for n in shape)):
                array = np.empty(0, dtype=np.int8)
                array.__setstate__((1, shape, np.dtype(_DTYPES[dtype.args[0]]), False, raw))
                self.array = array
        except (AttributeError, TypeError, ValueError):
            pass


# what numpy's pickles of arrays call (numpy 1 named the module
# numpy.core.multiarray); any other name a pickle holds is a plain _Record
_GLOBALS = {("numpy._core.multiarray", "_reconstruct"): _ArrayRecord,
            ("numpy.core.multiarray", "_reconstruct"): _ArrayRecord,
            ("numpy", "dtype"): _DtypeRecord}


class _Unpickler(pickle.Unpickler):
    """Unpickles every name a pickle holds as a record class, so loading
    runs no code the file names.  numpy's own unpickling would also apply
    any dtype state the file holds, and a damaged one can make numpy read
    float data as object pointers."""

    def find_class(self, module, name):
        return _GLOBALS.get((module, name), _Record)


def _arrays(path, payload: dict) -> None:
    """Replace each array record among the payload's values, and inside its
    lists, by its array; IntegrityError naming the key for a bad record."""

    def array(key, value):
        if not isinstance(value, _ArrayRecord):
            return value
        if value.array is None:
            raise IntegrityError(f"{path}: checkpoint {key} is not a stored array")
        return value.array

    for key, value in payload.items():
        payload[key] = ([array(key, v) for v in value] if isinstance(value, list)
                        else array(key, value))


def load_checkpoint(path) -> ParameterStore:
    with Path(path).open("rb") as fh:
        try:
            payload = _Unpickler(fh).load()
        except Exception as exc:
            # damaged bytes can make the unpickler raise almost anything,
            # a MemoryError for a length field that grew, for one
            raise IntegrityError(f"{path}: not a readable checkpoint: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError(f"{path}: checkpoint holds a {type(payload).__name__}, "
                             f"not a dict")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise IntegrityError(f"{path}: unsupported checkpoint version: {version}")
    try:
        _arrays(path, payload)
        _check_payload(path, payload)
        entity_names = tuple(payload["entity_names"])
        relation_names = tuple(payload["relation_names"])
        return ParameterStore(
            dim=payload["dim"],
            entity_names=entity_names,
            relation_names=relation_names,
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
            joint_snapshot=_joint_snapshot(path, payload, entity_names, relation_names),
        )
    except KeyError as exc:
        raise IntegrityError(f"{path}: checkpoint lacks key {exc}") from exc
