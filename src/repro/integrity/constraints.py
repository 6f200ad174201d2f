"""Referential integrity under amnesia (paper §5).

    "Semantic database integrity creates another challenge for amnesia
    strategies.  For example, foreign key relationships put a hard
    boundary on what we can forget.  Should forgetting a key value be
    forbidden unless it is not referenced any more?  Or should we
    cascade by forgetting all related tuples?"

This module answers both ways:

* :class:`ForeignKey` — a declared child→parent relationship between
  two amnesiac tables, with consistency checking;
* :class:`ReferentialAmnesiaWrapper` — wraps a parent table's policy so
  that parent tuples still referenced by *active* children are either
  never selected (``mode="restrict"``) or trigger cascaded forgetting
  of their children (``mode="cascade"``).
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError, LifecycleError
from ..amnesia.base import AmnesiaPolicy
from ..storage.table import Table

__all__ = ["ForeignKey", "ReferentialAmnesiaWrapper"]


class ForeignKey:
    """A child-table column referencing a parent-table key column.

    Keys are the *values* of the named columns (the simulator stores
    integers, so keys are integers).  The constraint is evaluated over
    active tuples only: forgotten parents with forgotten children are
    consistent — amnesia removed the whole subgraph.

    >>> import numpy as np
    >>> parent = Table("p", ["id"])
    >>> child = Table("c", ["pid"])
    >>> _ = parent.insert_batch(0, {"id": [1, 2]})
    >>> _ = child.insert_batch(0, {"pid": [1, 1, 2]})
    >>> fk = ForeignKey(child, "pid", parent, "id")
    >>> fk.violations().size
    0
    """

    def __init__(
        self,
        child: Table,
        child_column: str,
        parent: Table,
        parent_column: str,
    ):
        child.values(child_column)  # validates existence
        parent.values(parent_column)
        if child is parent:
            raise ConfigError("self-referencing foreign keys are not supported")
        self.child = child
        self.child_column = child_column
        self.parent = parent
        self.parent_column = parent_column

    def active_parent_keys(self) -> np.ndarray:
        """Distinct key values of active parent tuples."""
        return np.unique(self.parent.active_values(self.parent_column))

    def active_child_keys(self) -> np.ndarray:
        """Distinct key values referenced by active child tuples."""
        return np.unique(self.child.active_values(self.child_column))

    def referenced_parent_positions(self) -> np.ndarray:
        """Active parent positions whose key an active child references."""
        keys = self.active_child_keys()
        positions = self.parent.active_positions()
        values = self.parent.values(self.parent_column)[positions]
        return positions[np.isin(values, keys)]

    def children_of(self, parent_positions: np.ndarray) -> np.ndarray:
        """Active child positions referencing the given parent rows."""
        parent_positions = np.asarray(parent_positions, dtype=np.int64)
        keys = np.unique(
            self.parent.values(self.parent_column)[parent_positions]
        )
        positions = self.child.active_positions()
        values = self.child.values(self.child_column)[positions]
        return positions[np.isin(values, keys)]

    def violations(self) -> np.ndarray:
        """Active child positions whose parent key has no active parent."""
        parent_keys = self.active_parent_keys()
        positions = self.child.active_positions()
        values = self.child.values(self.child_column)[positions]
        return positions[~np.isin(values, parent_keys)]

    def check(self) -> None:
        """Raise if any active child dangles."""
        dangling = self.violations()
        if dangling.size:
            raise LifecycleError(
                f"foreign key {self.child.name}.{self.child_column} -> "
                f"{self.parent.name}.{self.parent_column} violated by "
                f"{dangling.size} active child tuples"
            )

    def __repr__(self) -> str:
        return (
            f"ForeignKey({self.child.name}.{self.child_column} -> "
            f"{self.parent.name}.{self.parent_column})"
        )


class ReferentialAmnesiaWrapper(AmnesiaPolicy):
    """Make a parent table's amnesia respect a foreign key.

    Parameters
    ----------
    inner:
        The discretionary policy choosing parent victims.
    foreign_key:
        The constraint to uphold.  The wrapped policy must be driving
        the *parent* table of this key.
    mode:
        ``"restrict"`` — referenced parents are excluded from the
        victim pool (the forgetting is forbidden "unless it is not
        referenced any more");
        ``"cascade"`` — referenced parents may be forgotten, and their
        active children are forgotten *in the same breath* (recorded on
        the child table immediately).
    """

    MODES = ("restrict", "cascade")

    def __init__(
        self,
        inner: AmnesiaPolicy,
        foreign_key: ForeignKey,
        mode: str = "restrict",
    ):
        if mode not in self.MODES:
            raise ConfigError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        self.inner = inner
        self.foreign_key = foreign_key
        self.mode = mode
        self.cascaded_children = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"referential[{self.mode}]({self.inner.name})"

    def select_victims(self, table, n, epoch, rng, exclude=None):
        if table is not self.foreign_key.parent:
            raise ConfigError(
                "ReferentialAmnesiaWrapper must drive the FK's parent table"
            )
        if self.mode == "restrict":
            protected = self.foreign_key.referenced_parent_positions()
            merged = protected
            if exclude is not None and len(exclude):
                merged = np.union1d(
                    protected, np.asarray(exclude, dtype=np.int64)
                )
            return self.inner.select_victims(
                table, n, epoch, rng, exclude=merged
            )
        # Cascade: choose parents freely, then forget their children.
        victims = self.inner.select_victims(table, n, epoch, rng, exclude=exclude)
        children = self.foreign_key.children_of(victims)
        if children.size:
            self.foreign_key.child.forget(children, epoch)
            self.cascaded_children += int(children.size)
        return victims

    def on_insert(self, table, positions, epoch):
        self.inner.on_insert(table, positions, epoch)

    def reset(self) -> None:
        self.inner.reset()
        self.cascaded_children = 0

    def __repr__(self) -> str:
        return (
            f"ReferentialAmnesiaWrapper(inner={self.inner!r}, "
            f"mode={self.mode!r})"
        )
