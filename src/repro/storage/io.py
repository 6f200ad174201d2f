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
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from .._util.errors import ReproError, StorageError
from ..faults import (
    CHECKPOINT_DONE,
    CHECKPOINT_ROTATE,
    CHECKPOINT_TMP,
    fault_point,
)
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
#: before any replay).  Version 1–3 files must be re-created.
FORMAT_VERSION = 4


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


def _table_arrays(table: Table, prefix: str) -> dict:
    arrays = {
        f"{prefix}active": table.active_mask().copy(),
        f"{prefix}insert_epoch": table.insert_epochs().copy(),
        f"{prefix}access_count": table.access_counts().copy(),
        f"{prefix}last_access_epoch": table.last_access_epochs().copy(),
        f"{prefix}forgotten_epoch": table.forgotten_epochs().copy(),
    }
    for name in table.column_names:
        arrays[f"{prefix}column:{name}"] = table.values(name).copy()
    return arrays


def _replay_table(
    table: Table, header: dict, bundle, prefix: str, on_insert=None
) -> Table:
    """Replay a saved table payload into (empty) ``table``.

    Cohort-by-cohort replay drives the live observer stream, so zone
    maps, histogram statistics and indexes attached to ``table``
    rebuild exactly; ``on_insert(table, positions, epoch)`` lets a
    database restore additionally feed its policy, mirroring
    :meth:`~repro.partitioning.partitioned.Partition.adopt_history`.
    """
    for cohort in header["cohorts"]:
        batch = {
            name: bundle[f"{prefix}column:{name}"][
                cohort["start"] : cohort["stop"]
            ]
            for name in header["columns"]
        }
        positions = table.insert_batch(cohort["epoch"], batch)
        if on_insert is not None:
            on_insert(table, positions, cohort["epoch"])

    active = bundle[f"{prefix}active"]
    if active.shape[0] != table.total_rows:
        raise StorageError(
            f"checkpoint is inconsistent: {active.shape[0]} activity "
            f"bits for {table.total_rows} rows"
        )
    forgotten_epoch = bundle[f"{prefix}forgotten_epoch"]
    forgotten = np.flatnonzero(~active)
    # Group by forgotten epoch so stamps are restored exactly.
    for epoch in np.unique(forgotten_epoch[forgotten]):
        batch = forgotten[forgotten_epoch[forgotten] == epoch]
        table.forget(batch, epoch=int(epoch))
    # Counters restore directly — no query replay needed.
    table._access_count.overwrite(bundle[f"{prefix}access_count"])
    table._last_access_epoch.overwrite(bundle[f"{prefix}last_access_epoch"])
    return table


# -- store payloads -------------------------------------------------------


def _compressed_payload(db, prefix: str) -> tuple[list, dict]:
    """Kind-tagged compressed-block records for one database.

    One record per demoted (cohort, column) block: scalars (codec name,
    span, exact value bounds, codec params) live in the JSON header
    with the payload-array field names recorded under ``"arrays"``; the
    arrays themselves are written as ``{prefix}cb{k}:{field}`` npz
    entries.
    """
    records: list[dict] = []
    arrays: dict = {}
    if getattr(db, "compressed", None) is None:
        return records, arrays
    for k, record in enumerate(db.compressed.state()):
        records.append(
            {**record["scalars"], "arrays": sorted(record["arrays"])}
        )
        for field, value in record["arrays"].items():
            arrays[f"{prefix}cb{k}:{field}"] = value
    return records, arrays


def _restore_compressed(db, records, bundle, prefix: str) -> None:
    """Rebuild a database's demoted blocks from v3 checkpoint records."""
    if db.compressed is None or not records:
        return
    full = []
    for k, rec in enumerate(records):
        scalars = {key: val for key, val in rec.items() if key != "arrays"}
        payload_arrays = {
            field: bundle[f"{prefix}cb{k}:{field}"]
            for field in rec.get("arrays", ())
        }
        full.append({"scalars": scalars, "arrays": payload_arrays})
    db.compressed.load_state(full)


def _database_payload(db, prefix: str) -> tuple[dict, dict]:
    compressed_records, compressed_arrays = _compressed_payload(db, prefix)
    header = {
        "kind": "database",
        "budget": db.budget,
        "epoch": db.epoch,
        "policy": db.policy.name,
        "plan": db.plan_mode,
        "stats": db.stats_mode,
        "compress": db.compress_mode,
        "compressed_blocks": compressed_records,
        # The victim-selection stream's position: restoring it lets a
        # randomized policy draw exactly what the live run would have.
        "policy_rng": db._policy_rng.bit_generator.state,
        "table": _table_header(db.table),
    }
    arrays = _table_arrays(db.table, prefix)
    arrays.update(compressed_arrays)
    return header, arrays


def _sharded_payload(store, prefix: str) -> tuple[dict, dict]:
    """Caller must hold the store's gate shared (see :func:`save_store`)."""
    partitions = sorted(store.partitions, key=lambda p: (p.low, p.high))
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
    for i, partition in enumerate(partitions):
        shard_prefix = f"{prefix}p{i}:"
        compressed_records, compressed_arrays = _compressed_payload(
            partition.db, shard_prefix
        )
        header["partitions"].append(
            {
                "low": partition.low,
                "high": partition.high,
                "budget": partition.budget,
                "epoch": partition.db.epoch,
                "query_hits": partition.query_hits,
                "query_rows": partition.query_rows,
                "policy_rng": partition.db._policy_rng.bit_generator.state,
                "table": _table_header(partition.db.table),
                "compressed_blocks": compressed_records,
            }
        )
        arrays.update(_table_arrays(partition.db.table, shard_prefix))
        arrays.update(compressed_arrays)
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
        store = catalog.sharded(name)
        store.flush()
        with store.gate.reading():
            sub_header, sub_arrays = _sharded_payload(store, f"s{j}:")
        header["sharded"][name] = sub_header
        arrays.update(sub_arrays)
    return header, arrays


# -- save ----------------------------------------------------------------


def _array_crc(value) -> int:
    array = np.ascontiguousarray(np.asarray(value))
    return zlib.crc32(array.tobytes())


def _checkpoint_path(path) -> Path:
    # np.savez_compressed appended ``.npz`` to bare paths in formats
    # 1–3; keep that behaviour now that we write through a file handle.
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
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(
            fh,
            header=np.frombuffer(
                json.dumps(header).encode(), dtype=np.uint8
            ),
            **arrays,
        )
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
        return _write_bundle(path, header, arrays, rotate=rotate)
    if isinstance(store, PartitionedAmnesiaDatabase):
        store.flush()
        with store.gate.reading():
            header, arrays = _sharded_payload(store, "")
        return _write_bundle(path, header, arrays, rotate=rotate)
    if isinstance(store, Catalog):
        header, arrays = _catalog_payload(store)
        return _write_bundle(path, header, arrays, rotate=rotate)
    raise StorageError(
        f"cannot checkpoint a {type(store).__name__}; expected a Table, "
        "AmnesiaDatabase, PartitionedAmnesiaDatabase or Catalog"
    )


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
            "payloads and format 3 files predate the checksummed "
            "durability manifest — re-create them with "
            "save_table/save_store)"
        )
    return header


def _verify_manifest(bundle, header: dict, path: Path) -> None:
    """Check every payload array against the header's CRC-32 manifest.

    Runs in full *before* any replay: a corrupt checkpoint must raise,
    not restore garbage into a fresh store.  Both directions are
    verified — a listed array that is missing or mismatched, and an
    unlisted stray array, each mean the file does not carry the state
    its header promises.
    """
    manifest = header["manifest"]
    members = set(bundle.files) - {"header"}
    missing = sorted(set(manifest) - members)
    stray = sorted(members - set(manifest))
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
        actual = _array_crc(bundle[name])
        if actual != expected:
            raise StorageError(
                f"{path} is corrupt (checksum mismatch for array "
                f"{name!r}: expected {expected}, got {actual})"
            )


def _load_database(header: dict, bundle, prefix: str, policy_factory):
    from ..core.database import AmnesiaDatabase

    if policy_factory is None:
        raise StorageError(
            "restoring a database checkpoint needs policy_factory= "
            "(policies are rebuilt, not serialized)"
        )
    table_header = header["table"]
    db = AmnesiaDatabase(
        budget=header["budget"],
        policy=policy_factory(),
        columns=table_header["columns"],
        table_name=table_header["name"],
        plan=header["plan"],
        stats=header["stats"],
        compress=header["compress"],
    )
    _replay_table(
        db.table,
        table_header,
        bundle,
        prefix,
        on_insert=db.policy.on_insert,
    )
    db.advance_epoch_to(header["epoch"])
    db._policy_rng.bit_generator.state = header["policy_rng"]
    # Demoted blocks restore from their saved payloads — no re-encode,
    # so codec choices and byte accounting come back bit-identical.
    _restore_compressed(db, header["compressed_blocks"], bundle, prefix)
    return db


def _load_sharded(header: dict, bundle, prefix: str, policy_factory):
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
        db = partition.db
        db.table.name = saved["table"]["name"]
        _replay_table(
            db.table,
            saved["table"],
            bundle,
            f"{prefix}p{i}:",
            on_insert=db.policy.on_insert,
        )
        db.advance_epoch_to(saved["epoch"])
        _restore_compressed(
            db, saved["compressed_blocks"], bundle, f"{prefix}p{i}:"
        )
        # Direct budget restore: the saved state already satisfies it,
        # and set_budget's enforcement would let overshoot-style
        # policies purge rows the checkpoint still holds.
        db.budget = int(saved["budget"])
        db._policy_rng.bit_generator.state = saved["policy_rng"]
        partition.query_hits = int(saved["query_hits"])
        partition.query_rows = int(saved["query_rows"])
    store._generation = int(header["generation"])
    store._adaptations = list(header["adaptations"])
    store.gate.reset(int(header["ingest_epoch"]))
    return store


def _load_catalog(header: dict, bundle, policy_factory):
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
        _replay_table(table, table_header, bundle, f"t{i}:")
    for j, (name, sub_header) in enumerate(header["sharded"].items()):
        store = _load_sharded(sub_header, bundle, f"s{j}:", policy_factory)
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
        with np.load(path) as bundle:
            header = _read_header(bundle, path)
            _verify_manifest(bundle, header, path)
            kind = header.get("kind", "table")
            if kind == "table":
                table = Table(header["name"], header["columns"])
                return _replay_table(table, header, bundle, "")
            if kind == "database":
                return _load_database(header, bundle, "", policy_factory)
            if kind == "sharded":
                return _load_sharded(header, bundle, "", policy_factory)
            if kind == "catalog":
                return _load_catalog(header, bundle, policy_factory)
            raise StorageError(
                f"{path} holds an unknown checkpoint kind {kind!r}"
            )
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
