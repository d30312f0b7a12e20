"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports its submodules' names eagerly
imports every submodule, and everything those import, as soon as any
one of them is needed: ``mnt-bench --help`` would load every
physical-design engine.  :func:`lazy_namespace` keeps the re-exports but
imports a name's submodule only when the name is first read.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_namespace(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule (relative to ``package``, e.g.
    ``".bench"``) to the public names it defines.  Reading one of those
    names imports its submodule and caches the value in the package's
    globals, so ``package.X is package.<sub>.X`` and later reads are
    plain attribute lookups.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return list(owner), __getattr__, __dir__
