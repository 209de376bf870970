"""The examples in README.md and in the package's docstrings run as doctests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import bott_towers

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["bott_towers"] + sorted(
    f"bott_towers.{info.name}"
    for info in pkgutil.iter_modules(bott_towers.__path__))


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0

