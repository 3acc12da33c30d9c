"""Package exports resolved on first attribute access (PEP 562).

Every package ``__init__`` in :mod:`repro` names its public surface in
one table, ``_EXPORTS = {defining module: (export, ...)}``, and hands
it to :func:`lazy_exports`.  Importing a package then loads none of its
modules: ``from repro.hypergraph import minimal_transversals`` imports
the enumeration module and what it needs, and nothing else of the
library.  A resolved export is stored in the package namespace, so
every later lookup is a plain attribute read.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    namespace: dict,
    table: Mapping[str, tuple[str, ...]],
    eager: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package.

    Args:
        namespace: the package's ``globals()``; resolved exports are
            cached in it.
        table: each defining module with the names the package
            exports from it, every name listed once.
        eager: exports to bind now.  An export that shares its name
            with a submodule of its package must be one: importing the
            submodule sets that package attribute to the module, which
            would then shadow a lazy export.  Bound here, the export
            wins, because the submodule is already loaded and a later
            import does not rebind it.

    Returns:
        The export names in table order (the package's ``__all__``),
        the module ``__getattr__`` that imports an export's defining
        module on first access (and raises :class:`AttributeError` for
        any other name, so ``hasattr`` and submodule imports keep
        working), and the module ``__dir__``.
    """
    package = namespace["__name__"]
    origin = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        # The import statement's path, not importlib.import_module, so
        # that ``python -X importtime`` lists the module under its name.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    for name in eager:
        __getattr__(name)
    return list(origin), __getattr__, __dir__
