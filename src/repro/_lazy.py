"""Lazy package exports (PEP 562).

A package names each public object once, beside the module that defines
it, and hands that table to :func:`lazy_exports`.  The module loads the
first time one of its names is read, so ``import repro.service.client``
does not pull in the simulator, and a plain simulation does not pull in
the figures, the trace codec or the service.  ``from <package> import
<name>`` and ``<package>.<name>`` behave as with eager re-exports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name is fetched from its module on first read
    and stored on the package, so later reads never reach ``__getattr__``.
    Any other attribute that names a submodule imports it, as a plain
    ``import package.submodule`` would.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
