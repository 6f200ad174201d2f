"""Run the doctest examples embedded in the public API docstrings.

Docstrings are part of the deliverable; if an example in one rots, that
is a documentation bug this test catches.  Every ``repro`` module whose
source contains a ``>>>`` prompt is collected, so a new example runs
without being registered here.
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro


def _doctest_modules() -> list[str]:
    names = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # Importing the entry point would run the CLI.
        if info.name == "repro.__main__":
            continue
        origin = importlib.util.find_spec(info.name).origin
        if ">>>" in Path(origin).read_text(encoding="utf-8"):
            names.append(info.name)
    return sorted(names)


MODULES = _doctest_modules()


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False, report=True)
    assert result.attempted > 0, f"{name} has no doctests"
    assert result.failed == 0, f"{result.failed} doctest failures in {name}"
