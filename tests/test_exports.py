"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves its name in an ``__all__`` list breaks
``from repro.x import *`` and misleads readers about what exists.
Every module and package under ``repro`` is walked, so a new module is
checked without being registered here.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # Importing the entry point would run the CLI.
        if info.name != "repro.__main__":
            names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _modules())
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
