"""Columnar storage substrate: the table row store, cohorts, checkpoints.

This package implements the "skeleton of a columnar DBMS" from paper
§2.1.  A :class:`Table` keeps its per-row state in one row store: an
``int64`` array per column, an activity array that realises forgetting
by marking (never by destroying) and the per-tuple amnesia metadata,
all growing together under one row count.  Around it sit the cohort
bookkeeping for the amnesia maps, the compressed cold-cohort store, the
multi-table catalog and checkpoint I/O.
"""

from .catalog import Catalog
from .cohorts import Cohort, CohortLog, CohortZoneMap
from .compressed import CompressedCohortStore
from .io import load_store, load_table, recover_store, save_store, save_table
from .table import Table, TableObserver

__all__ = [
    "Catalog",
    "Cohort",
    "CohortLog",
    "CohortZoneMap",
    "CompressedCohortStore",
    "Table",
    "TableObserver",
    "load_store",
    "load_table",
    "recover_store",
    "save_store",
    "save_table",
]
