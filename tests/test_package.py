from __future__ import annotations

import importlib
import pkgutil

import cocycle


def _modules():
    yield cocycle
    for info in pkgutil.iter_modules(cocycle.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"cocycle.{info.name}")


def test_every_exported_name_resolves():
    missing = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from cocycle import *", namespace)
    assert set(cocycle.__all__) <= set(namespace)
