"""Every module under ``repro`` imports, and every name it exports exists.

A name left in ``__all__`` after its definition is deleted breaks
``from module import *`` only when somebody runs it; this test runs it
for every module.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=repro.__name__ + "."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _module_names())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
