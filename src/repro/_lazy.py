"""Lazy package exports (PEP 562).

A package lists its public names in one ``{name: submodule}`` table and
takes its module-level ``__getattr__`` and ``__dir__`` from
:func:`lazy_exports`.  A name's submodule is imported on the first access,
so importing one submodule of a package no longer imports its siblings:
the admission service loads the pure-Python modules it runs, not numpy,
the simulator and the experiment harness.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``, which exports each
    key of ``table`` from the submodule (relative to ``package``) that its
    value names."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = f"{package}.{submodule}"
        # the import statement's path, which ``-X importtime`` reports
        # (``importlib.import_module`` bypasses it)
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value  # later accesses are plain dict hits
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
