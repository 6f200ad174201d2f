"""Persistence: checkpoint and restore tables, stores and catalogs.

Long amnesia studies (the §4.3 "increased run length" experiments and
anything larger) want checkpoints.  Format 2 extended the original
table-only path — one compressed ``.npz`` with a JSON header — to the
whole storage hierarchy; format 3 adds the compressed-execution state
(the ``compress`` mode plus kind-tagged compressed-block payloads for
every demoted cohort, so a restored store answers from the same
encoded blocks without re-encoding).  One pair of entry points covers
it all:

* :func:`save_table` / :func:`load_table` — one bare
  :class:`~repro.storage.table.Table` (values, activity bitmap,
  amnesia metadata, cohort log), unchanged API;
* :func:`save_store` / :func:`load_store` — additionally a
  :class:`~repro.core.database.AmnesiaDatabase` (budget, epoch, plan
  and stats modes), a :class:`~repro.partitioning.
  PartitionedAmnesiaDatabase` (layout, boundaries, per-shard budgets
  and clocks, traffic counters, adaptation history, published ingest
  epoch) or a :class:`~repro.storage.catalog.Catalog` (every plain
  table plus every registered sharded store) — all nested into the
  same one-file format rather than a second persistence path.

Only state the storage layer owns is persisted.  Policies, indexes,
zone maps and histogram statistics rebuild from the restored tables
(the cohort-by-cohort replay drives the same observer stream a live
run would have), which keeps the format small and forward-compatible.
The facade's policy *random stream* is state it owns, so its generator
position is saved too: a restored database or sharded store draws the
same victims the uncheckpointed run would have, as long as the policy
object itself carries no internal working state — policies that do
(e.g. the area policy's mold-area list) rebuild fresh from
``policy_factory`` and resume approximately.

Durability & recovery (format 4)
--------------------------------

The paper's thesis is that forgetting must be a *deliberate* act; a
checkpoint destroyed by unlucky crash timing would be accidental
amnesia.  Format 4 therefore makes the write path crash-safe and the
read path corruption-evident:

* **Atomic writes.**  Every save goes to ``<path>.tmp`` first, is
  flushed and fsynced, then moved into place with
  :func:`os.replace` (atomic on POSIX).  A kill at any instant leaves
  either the complete old file or the complete new file — never a
  torn one.  With ``rotate=True`` the previous checkpoint is first
  moved to ``<path>.prev``, keeping one generation of fallback.
* **Checksummed manifest.**  The JSON header carries a ``"manifest"``
  mapping every payload array name to the CRC-32 of its bytes.
  :func:`load_store` verifies the whole manifest — every listed array
  present and matching, no unlisted strays — *before* replaying
  anything, so a silently corrupted file raises
  :class:`~repro._util.errors.StorageError` instead of restoring
  garbage.
* **Recovery.**  :func:`recover_store` tries ``path`` then
  ``path.prev`` in order and returns the newest fully-valid snapshot
  (plus which file it used); it raises only when *no* candidate
  passes verification.  Combined with atomic writes this yields the
  recovery contract the fault suite proves: no crash injected at any
  point of the write path can leave a state ``recover_store`` refuses
  to load.

The write path exposes named fault-injection points
(``checkpoint.tmp`` / ``checkpoint.rotate`` / ``checkpoint.done`` —
see :mod:`repro.faults`) at each durability boundary.

Checkpoint cost (formats 5 and 6)
---------------------------------

A checkpoint is on the write path of every epoch loop that saves, so
formats 5 and 6 make one cost what it stores:

* **Narrowed table arrays.**  Every int64 table array (values, access
  counts, last-access and forgotten stamps) is saved in the smallest
  signed integer dtype that holds its ``[min, max]`` and widened back
  to int64 on load.  The per-row insert epoch is no longer written:
  replay re-derives it from the cohort log.
* **Deflate only what can shrink.**  The header and table arrays are
  deflated at level 1; codec payloads (``{prefix}cb{k}:*``) are
  already encoded and are stored as-is.
* **Read once.**  :func:`load_store` reads each member into memory
  once; the manifest check and the replay both use that copy, and
  forgotten stamps restore with one stable sort by epoch, so a load
  is linear in the rows it restores.
* **Each cold value once (format 6).**  A demoted cohort's values are
  saved only as its codec block.  A column that a database's
  compressed store covers saves in ``{prefix}column:{name}`` just the
  rows no block covers, in position order, and the header records the
  CRC-32 of the full int64 column (``column_crc32``).  Before a
  database's table replays a row, the load decodes every block into
  its cohort's span — after checking the record against the header's
  cohort log — scatters the saved rows into the gaps, and refuses the
  file unless the rebuilt column matches its CRC.  Per-row stamps,
  activity and every other column are still saved for every row, and
  no block is re-encoded on load.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .._util.errors import CompressionError, ReproError, StorageError
from ..compression.codecs import make_codec
from ..faults import (
    CHECKPOINT_DONE,
    CHECKPOINT_ROTATE,
    CHECKPOINT_TMP,
    fault_point,
)
from .compressed import record_block
from .table import Table

__all__ = [
    "save_table",
    "load_table",
    "save_store",
    "load_store",
    "recover_store",
]

#: Format version embedded in every checkpoint.  Version 2 added the
#: store/catalog payloads (kind-tagged headers, prefixed array
#: namespaces); version 3 added compressed-block payloads (the
#: database/sharded ``compress`` mode plus one kind-tagged record per
#: demoted (cohort, column) block, scalars in the JSON header and
#: payload arrays under ``{prefix}cb{k}:{field}``); version 4 added
#: the durability envelope (atomic tmp+fsync+replace writes and the
#: per-array CRC-32 ``"manifest"`` in the header, verified in full
#: before any replay); version 5 narrows the int64 table arrays to the
#: smallest signed dtype that holds them, drops the per-row
#: ``insert_epoch`` array (replay re-derives it from the cohorts) and
#: stores codec payloads undeflated; version 6 saves a demoted cohort's
#: values only as its codec block (a covered column keeps just its
#: uncovered rows plus a CRC-32 of the whole column).  Version 1–5
#: files must be re-created.
FORMAT_VERSION = 6

#: Signed dtypes a table array may narrow to on save, smallest first.
_NARROW_DTYPES = (np.int8, np.int16, np.int32, np.int64)

#: Codec payload members, ``{prefix}cb{k}:{field}`` under any nesting of
#: shard (``p``), catalog table (``t``) and sharded (``s``) prefixes.
#: They hold already-encoded blocks, which deflate cannot shrink.
_BLOCK_PAYLOAD = re.compile(r"(?:[pst]\d+:)*cb\d+:")


# -- table payload (shared by every kind) --------------------------------


def _table_header(table: Table) -> dict:
    return {
        "name": table.name,
        "columns": list(table.column_names),
        "cohorts": [
            {"epoch": c.epoch, "start": c.start, "stop": c.stop}
            for c in table.cohorts
        ],
    }


def _narrowed(values: np.ndarray) -> np.ndarray:
    """A copy of int64 ``values`` in the smallest signed dtype that holds
    their ``[min, max]`` (an empty array narrows to int8)."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    dtype = next(
        dtype
        for dtype in _NARROW_DTYPES
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
    )
    return values.astype(dtype)


def _widened(members: dict, name: str) -> np.ndarray:
    """A saved table array back at int64; refuses a non-integer dtype
    rather than truncating it."""
    values = members[name]
    if values.dtype.kind != "i":
        raise StorageError(
            f"checkpoint array {name!r} has dtype {values.dtype}, "
            "expected a signed integer"
        )
    return values.astype(np.int64, copy=False)


def _table_arrays(table: Table, prefix: str, gaps=None) -> dict:
    """A table's per-row arrays; a column named in ``gaps`` (column ->
    mask of the rows no codec block covers) saves only those rows."""
    gaps = gaps or {}
    # Every entry is a copy, so the snapshot holds once the caller
    # releases the store's gate.
    arrays = {
        f"{prefix}active": table.active_mask().copy(),
        f"{prefix}access_count": _narrowed(table.access_counts()),
        f"{prefix}last_access_epoch": _narrowed(table.last_access_epochs()),
        f"{prefix}forgotten_epoch": _narrowed(table.forgotten_epochs()),
    }
    for name in table.column_names:
        values = table.values(name)
        if name in gaps:
            values = values[gaps[name]]
        arrays[f"{prefix}column:{name}"] = _narrowed(values)
    return arrays


def _replay_table(
    table: Table, header: dict, members: dict, prefix: str,
    on_insert=None, columns=None,
) -> Table:
    """Replay a saved table payload into (empty) ``table``.

    Cohort-by-cohort replay (:meth:`~repro.storage.table.Table.
    replay_history`) drives the live observer stream, so zone maps,
    histogram statistics and indexes attached to ``table`` rebuild
    exactly; ``on_insert(table, positions, epoch)`` lets a database
    restore additionally feed its policy.  ``columns`` holds columns
    already rebuilt from codec blocks; the rest are read as saved.
    """
    columns = columns or {}
    table.replay_history(
        [(c["epoch"], c["start"], c["stop"]) for c in header["cohorts"]],
        {
            name: columns[name]
            if name in columns
            else _widened(members, f"{prefix}column:{name}")
            for name in header["columns"]
        },
        members[f"{prefix}active"],
        _widened(members, f"{prefix}forgotten_epoch"),
        _widened(members, f"{prefix}access_count"),
        _widened(members, f"{prefix}last_access_epoch"),
        on_insert,
    )
    return table


# -- store payloads -------------------------------------------------------


def _database_state(db, prefix: str) -> tuple[dict, dict]:
    """One database's durable state, as header fields and arrays.

    Both the ``database`` kind and each ``sharded`` partition entry save
    this.  Each demoted (cohort, column) block is one header record of
    scalars (codec, span, value bounds, params) naming its payload
    arrays, which are saved as ``{prefix}cb{k}:{field}``.  A column the
    compressed store covers saves only the rows no block covers, plus
    the CRC-32 of its full int64 values (``column_crc32``).
    """
    records = [] if db.compressed is None else db.compressed.state()
    covered = () if db.compressed is None else db.compressed.columns
    gaps = {name: np.ones(db.table.total_rows, dtype=bool) for name in covered}
    for record in records:
        scalars = record["scalars"]
        gaps[scalars["column"]][scalars["start"] : scalars["stop"]] = False
    arrays = _table_arrays(db.table, prefix, gaps)
    blocks = []
    for k, record in enumerate(records):
        blocks.append({**record["scalars"], "arrays": sorted(record["arrays"])})
        for field, value in record["arrays"].items():
            arrays[f"{prefix}cb{k}:{field}"] = value
    state = {
        "budget": db.budget,
        "epoch": db.epoch,
        # The victim-selection stream's position: restoring it lets a
        # randomized policy draw exactly what the live run would have.
        "policy_rng": db._policy_rng.bit_generator.state,
        "table": _table_header(db.table),
        "compressed_blocks": blocks,
        "column_crc32": {
            name: _array_crc(db.table.values(name)) for name in covered
        },
    }
    return state, arrays


def _block_records(state: dict, members: dict, prefix: str) -> list[dict]:
    """The saved block records, in :meth:`~repro.storage.compressed.
    CompressedCohortStore.state` form."""
    return [
        {
            "scalars": {key: val for key, val in rec.items() if key != "arrays"},
            "arrays": {
                field: members[f"{prefix}cb{k}:{field}"] for field in rec["arrays"]
            },
        }
        for k, rec in enumerate(state["compressed_blocks"])
    ]


def _rebuilt_columns(
    state: dict, records: list[dict], members: dict, prefix: str
) -> dict:
    """Every ``column_crc32`` column at int64, rebuilt before any replay.

    Each block decodes into its cohort's span, once its record matches
    the header's cohort log (exact span, ``n_values``, no overlap); the
    saved rows then fill the rows no block covers, in position order,
    and the result must match the column's CRC-32.  Anything else
    raises :class:`~repro._util.errors.StorageError`.
    """
    cohorts = state["table"]["cohorts"]
    rows = cohorts[-1]["stop"] if cohorts else 0
    crcs = state["column_crc32"]
    columns = {name: np.empty(rows, dtype=np.int64) for name in crcs}
    gaps = {name: np.ones(rows, dtype=bool) for name in crcs}
    for record in records:
        scalars = record["scalars"]
        name, ordinal = scalars["column"], scalars["ordinal"]
        start, stop = scalars["start"], scalars["stop"]
        cohort = cohorts[ordinal] if 0 <= ordinal < len(cohorts) else {}
        if (
            name not in columns
            or (start, stop) != (cohort.get("start"), cohort.get("stop"))
            or scalars["n_values"] != stop - start
            or not gaps[name][start:stop].all()
        ):
            raise StorageError(
                f"compressed block ({name!r}, cohort {ordinal}, rows "
                f"{start}:{stop}, n_values {scalars['n_values']}) does not "
                "match the saved cohort log"
            )
        block = record_block(record)
        try:
            values = make_codec(block.codec_name).decode(block)
        except CompressionError as exc:
            raise StorageError(
                f"compressed block ({name!r}, cohort {ordinal}) does not "
                f"decode: {exc}"
            ) from exc
        columns[name][start:stop] = values
        gaps[name][start:stop] = False
    for name, crc in crcs.items():
        saved = _widened(members, f"{prefix}column:{name}")
        uncovered = gaps[name]
        if saved.size != np.count_nonzero(uncovered):
            raise StorageError(
                f"checkpoint array {prefix}column:{name} holds {saved.size} "
                f"rows; the blocks leave {np.count_nonzero(uncovered)} uncovered"
            )
        columns[name][uncovered] = saved
        if _array_crc(columns[name]) != crc:
            raise StorageError(
                f"column {name!r} rebuilt from its blocks does not match "
                "its saved checksum"
            )
    return columns


def _restore_database(db, state: dict, members: dict, prefix: str) -> None:
    """Restore :func:`_database_state` into a freshly built, empty ``db``."""
    records = _block_records(state, members, prefix)
    columns = _rebuilt_columns(state, records, members, prefix)
    db.table.name = state["table"]["name"]
    _replay_table(
        db.table, state["table"], members, prefix,
        on_insert=db.policy.on_insert, columns=columns,
    )
    db.advance_epoch_to(state["epoch"])
    # Direct budget restore: the saved state already satisfies it, and
    # enforcing it would let overshoot-style policies purge rows the
    # checkpoint still holds.
    db.budget = int(state["budget"])
    db._policy_rng.bit_generator.state = state["policy_rng"]
    if db.compressed is not None and records:
        # Demoted blocks restore from their saved payloads — no
        # re-encode, so codec choices and byte accounting come back
        # bit-identical.
        db.compressed.load_state(records)


def _database_payload(db, prefix: str) -> tuple[dict, dict]:
    state, arrays = _database_state(db, prefix)
    header = {
        "kind": "database",
        "policy": db.policy.name,
        "plan": db.plan_mode,
        "stats": db.stats_mode,
        "compress": db.compress_mode,
        **state,
    }
    return header, arrays


def _sharded_payload(store, prefix: str) -> tuple[dict, dict]:
    """A published ingest epoch of ``store``: queued batches are flushed,
    then the shards are read under the gate's shared side."""
    store.flush()
    with store.gate.reading():
        header = {
            "kind": "sharded",
            "column": store.column,
            "total_budget": store.total_budget,
            "seed": store._seed,
            "plan": store.plan_mode,
            "stats": store.stats_mode,
            "compress": store.compress_mode,
            "workers": store.workers,
            "rebalance": store.rebalance_policy,
            "split_threshold": store.split_threshold,
            "max_partitions": store.max_partitions,
            "generation": store._generation,
            "adaptations": list(store.adaptations),
            "ingest_epoch": store.ingest_epoch,
            "partitions": [],
        }
        arrays: dict = {}
        for i, partition in enumerate(store.partitions):
            state, shard_arrays = _database_state(partition.db, f"{prefix}p{i}:")
            header["partitions"].append(
                {
                    "low": partition.low,
                    "high": partition.high,
                    "query_hits": partition.query_hits,
                    "query_rows": partition.query_rows,
                    **state,
                }
            )
            arrays.update(shard_arrays)
        return header, arrays


def _catalog_payload(catalog) -> tuple[dict, dict]:
    tables = [catalog.get(name) for name in catalog.names()]
    header = {
        "kind": "catalog",
        "plan": catalog.plan_mode,
        "stats": catalog.stats_mode,
        "workers": catalog.workers,
        "tables": [_table_header(t) for t in tables],
        "sharded": {},
    }
    arrays: dict = {}
    for i, table in enumerate(tables):
        arrays.update(_table_arrays(table, f"t{i}:"))
    for j, name in enumerate(catalog.sharded_names()):
        sub_header, sub_arrays = _sharded_payload(catalog.sharded(name), f"s{j}:")
        header["sharded"][name] = sub_header
        arrays.update(sub_arrays)
    return header, arrays


# -- save ----------------------------------------------------------------


def _array_crc(value) -> int:
    return zlib.crc32(np.ascontiguousarray(value))


def _checkpoint_path(path) -> Path:
    # A bare path gets the ``.npz`` suffix that np.savez gave format 1–3
    # files, so a caller passing the same bare path finds its file.
    path = Path(path)
    if path.suffix != ".npz":
        path = Path(str(path) + ".npz")
    return path


def _write_bundle(path, header: dict, arrays: dict, rotate: bool = False) -> Path:
    """Atomically persist one checkpoint bundle.

    Write order is the durability argument: (1) the complete bundle —
    header with per-array CRC-32 manifest, then every array — lands in
    ``<path>.tmp`` and is fsynced; (2) with ``rotate``, any existing
    destination moves to ``<path>.prev``; (3) the tmp file moves into
    place with :func:`os.replace`.  Steps 2 and 3 are atomic renames,
    so a crash between any two steps leaves at least one fully-valid
    snapshot among ``path``/``path.prev`` (the fault points after each
    step let the property suite prove exactly that).
    """
    path = _checkpoint_path(path)
    manifest = {name: _array_crc(value) for name, value in arrays.items()}
    header = {
        "format_version": FORMAT_VERSION,
        "manifest": manifest,
        **header,
    }
    members = {
        "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        **arrays,
    }
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        # The .npz layout np.load reads: one ``{name}.npy`` entry per
        # member.  Level-1 deflate for the header and the narrowed
        # table arrays; codec payloads are stored as-is.
        with zipfile.ZipFile(
            fh, "w", zipfile.ZIP_DEFLATED, compresslevel=1
        ) as bundle:
            for name, value in members.items():
                entry = name + ".npy"
                if _BLOCK_PAYLOAD.match(name):
                    entry = zipfile.ZipInfo(entry)
                    entry.compress_type = zipfile.ZIP_STORED
                with bundle.open(entry, "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, value, allow_pickle=False)
        fh.flush()
        os.fsync(fh.fileno())
    fault_point(CHECKPOINT_TMP)
    if rotate and path.exists():
        os.replace(path, str(path) + ".prev")
        fault_point(CHECKPOINT_ROTATE)
    os.replace(tmp, path)
    fault_point(CHECKPOINT_DONE)
    try:
        # Make the renames themselves durable; best-effort, since not
        # every filesystem lets a directory be opened for fsync.
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


def save_table(table: Table, path, rotate: bool = False) -> Path:
    """Write ``table`` to ``path`` as a compressed ``.npz`` checkpoint.

    The write is atomic (tmp + fsync + :func:`os.replace`); with
    ``rotate=True`` the previous checkpoint survives as ``path.prev``
    for :func:`recover_store` to fall back to.

    >>> import tempfile, os
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [1, 2, 3]})
    >>> out = save_table(t, os.path.join(tempfile.mkdtemp(), "t.npz"))
    >>> load_table(out).total_rows
    3
    """
    header = {"kind": "table", **_table_header(table)}
    return _write_bundle(path, header, _table_arrays(table, ""), rotate=rotate)


def save_store(store, path, rotate: bool = False) -> Path:
    """Write a table, database, sharded store or catalog to ``path``.

    One format, one file: the payload is tagged with its kind, and
    :func:`load_store` rebuilds the matching object.  A sharded store
    is flushed first (queued batches apply and publish), then
    snapshotted under its epoch gate's shared side, so the saved state
    is always a published ingest epoch — never a half-applied batch.
    The write is atomic; ``rotate=True`` keeps the previous checkpoint
    as ``path.prev`` (see :func:`recover_store`).
    """
    from ..core.database import AmnesiaDatabase
    from ..partitioning.partitioned import PartitionedAmnesiaDatabase
    from .catalog import Catalog

    if isinstance(store, Table):
        return save_table(store, path, rotate=rotate)
    if isinstance(store, AmnesiaDatabase):
        header, arrays = _database_payload(store, "")
    elif isinstance(store, PartitionedAmnesiaDatabase):
        header, arrays = _sharded_payload(store, "")
    elif isinstance(store, Catalog):
        header, arrays = _catalog_payload(store)
    else:
        raise StorageError(
            f"cannot checkpoint a {type(store).__name__}; expected a Table, "
            "AmnesiaDatabase, PartitionedAmnesiaDatabase or Catalog"
        )
    return _write_bundle(path, header, arrays, rotate=rotate)


# -- load ----------------------------------------------------------------


def _read_header(bundle, path: Path) -> dict:
    try:
        header = json.loads(bytes(bundle["header"].tobytes()).decode())
    except (KeyError, ValueError) as exc:
        raise StorageError(f"{path} is not a repro checkpoint") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"checkpoint format {version} not supported (expected "
            f"{FORMAT_VERSION}; format 1 files predate store/catalog "
            "checkpoints, format 2 files predate compressed-block "
            "payloads, format 3 files predate the checksummed "
            "durability manifest, format 4 files predate narrowed "
            "table arrays and format 5 files save demoted cohorts twice, "
            "as codec blocks and as raw columns — re-create them with "
            "save_table/save_store)"
        )
    return header


def _verify_manifest(members: dict, header: dict, path: Path) -> None:
    """Check every payload array against the header's CRC-32 manifest.

    Runs in full *before* any replay: a corrupt checkpoint must raise,
    not restore garbage into a fresh store.  Both directions are
    verified — a listed array that is missing or mismatched, and an
    unlisted stray array, each mean the file does not carry the state
    its header promises.  ``members`` is the in-memory copy the replay
    then slices, so what is verified is exactly what is restored.
    """
    manifest = header["manifest"]
    missing = sorted(set(manifest) - set(members))
    stray = sorted(set(members) - set(manifest))
    if missing or stray:
        detail = []
        if missing:
            detail.append(f"missing arrays: {', '.join(missing)}")
        if stray:
            detail.append(f"unlisted arrays: {', '.join(stray)}")
        raise StorageError(
            f"{path} is corrupt ({'; '.join(detail)})"
        )
    for name, expected in manifest.items():
        actual = _array_crc(members[name])
        if actual != expected:
            raise StorageError(
                f"{path} is corrupt (checksum mismatch for array "
                f"{name!r}: expected {expected}, got {actual})"
            )


def _load_database(header: dict, members: dict, prefix: str, policy_factory):
    from ..core.database import AmnesiaDatabase

    if policy_factory is None:
        raise StorageError(
            "restoring a database checkpoint needs policy_factory= "
            "(policies are rebuilt, not serialized)"
        )
    db = AmnesiaDatabase(
        budget=header["budget"],
        policy=policy_factory(),
        columns=header["table"]["columns"],
        plan=header["plan"],
        stats=header["stats"],
        compress=header["compress"],
    )
    _restore_database(db, header, members, prefix)
    return db


def _load_sharded(header: dict, members: dict, prefix: str, policy_factory):
    from ..partitioning.partitioned import PartitionedAmnesiaDatabase

    if policy_factory is None:
        raise StorageError(
            "restoring a sharded checkpoint needs policy_factory= "
            "(policies are rebuilt, not serialized)"
        )
    parts = header["partitions"]
    boundaries = [p["low"] for p in parts] + [parts[-1]["high"]]
    store = PartitionedAmnesiaDatabase(
        header["column"],
        boundaries,
        header["total_budget"],
        policy_factory,
        seed=header["seed"],
        plan=header["plan"],
        workers=header["workers"],
        rebalance=header["rebalance"],
        split_threshold=header["split_threshold"],
        max_partitions=header["max_partitions"],
        stats=header["stats"],
        compress=header["compress"],
    )
    for i, (partition, saved) in enumerate(zip(store.partitions, parts)):
        _restore_database(partition.db, saved, members, f"{prefix}p{i}:")
        partition.query_hits = int(saved["query_hits"])
        partition.query_rows = int(saved["query_rows"])
    store._generation = int(header["generation"])
    store._adaptations = list(header["adaptations"])
    store.gate.reset(int(header["ingest_epoch"]))
    return store


def _load_catalog(header: dict, members: dict, policy_factory):
    from .catalog import Catalog

    # Older format-4 writers stored ``null`` for a mode the catalog had
    # not resolved yet; those fall back to the constructor's default.
    modes = ("plan", "workers", "stats")
    catalog = Catalog(
        **{key: header[key] for key in modes if header[key] is not None}
    )
    for i, table_header in enumerate(header["tables"]):
        table = catalog.create_table(
            table_header["name"], table_header["columns"]
        )
        _replay_table(table, table_header, members, f"t{i}:")
    for j, (name, sub_header) in enumerate(header["sharded"].items()):
        store = _load_sharded(sub_header, members, f"s{j}:", policy_factory)
        catalog.register_sharded(name, store)
    return catalog


def load_store(path, policy_factory=None):
    """Restore whatever :func:`save_store` (or :func:`save_table`) wrote.

    Returns the object matching the checkpoint's kind: a
    :class:`Table`, an :class:`~repro.core.database.AmnesiaDatabase`,
    a :class:`~repro.partitioning.PartitionedAmnesiaDatabase` or a
    :class:`~repro.storage.catalog.Catalog`.  Database and sharded
    checkpoints (and catalogs containing sharded stores) need
    ``policy_factory`` — a zero-argument callable producing a fresh
    policy, exactly like the sharded constructor's — because policies
    rebuild from the replayed tables instead of being serialized.
    Truncated or corrupt files raise :class:`~repro._util.errors.
    StorageError`, never a bare numpy traceback.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no checkpoint at {path}")
    try:
        # Each member is read (and inflated) exactly once; the manifest
        # check and the replay share that copy.
        with np.load(path) as bundle:
            header = _read_header(bundle, path)
            members = {
                name: bundle[name] for name in bundle.files if name != "header"
            }
        _verify_manifest(members, header, path)
        kind = header.get("kind", "table")
        if kind == "table":
            table = Table(header["name"], header["columns"])
            return _replay_table(table, header, members, "")
        if kind == "database":
            return _load_database(header, members, "", policy_factory)
        if kind == "sharded":
            return _load_sharded(header, members, "", policy_factory)
        if kind == "catalog":
            return _load_catalog(header, members, policy_factory)
        raise StorageError(f"{path} holds an unknown checkpoint kind {kind!r}")
    except ReproError:
        raise
    except Exception as exc:
        # Truncated zip members, mangled JSON, missing arrays: surface
        # one storage diagnostic instead of a numpy/zipfile traceback.
        raise StorageError(
            f"{path} is not a readable checkpoint: {exc}"
        ) from exc


def recover_store(path, policy_factory=None):
    """Restore the newest fully-valid snapshot at or behind ``path``.

    Tries ``path`` first, then the ``path.prev`` rotation fallback
    (written by ``save_store(..., rotate=True)``), returning
    ``(store, used_path)`` for the first candidate whose manifest
    verifies in full.  Raises :class:`~repro._util.errors.StorageError`
    only when every candidate is missing, torn or corrupt — with one
    line per attempt so the operator sees exactly what was tried.

    This is the recovery half of the durability contract: because the
    write path is atomic-with-rotation, a crash at any instant leaves
    at least one candidate this function accepts.
    """
    path = _checkpoint_path(path)
    candidates = [path, Path(str(path) + ".prev")]
    failures: list[str] = []
    for candidate in candidates:
        try:
            return load_store(candidate, policy_factory), candidate
        except StorageError as exc:
            failures.append(f"{candidate}: {exc}")
    raise StorageError(
        "no recoverable checkpoint; tried "
        + "; ".join(failures)
    )


def load_table(path) -> Table:
    """Restore a table saved by :func:`save_table`.

    Store-level checkpoints (database/sharded/catalog kinds) must go
    through :func:`load_store`; pointing ``load_table`` at one raises
    a clear :class:`~repro._util.errors.StorageError`.
    """
    result = load_store(path)
    if not isinstance(result, Table):
        raise StorageError(
            f"{path} holds a {type(result).__name__} checkpoint; "
            "restore it with load_store()"
        )
    return result
