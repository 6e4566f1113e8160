"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` imports eagerly only what a transfer or an RPC
uses.  Its other public names sit in one name→submodule table, and
:func:`lazy_exports` turns that table into the module's ``__getattr__``
and ``__dir__``: the submodule is imported on first access, so
``import repro`` does not pay for the peripherals.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps each deferred name to the submodule of ``package``
    that defines it.  A resolved name is stored in the package's
    namespace, so later lookups never reach ``__getattr__``.
    """

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
