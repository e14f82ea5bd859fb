"""One lazy-export table per package ``__init__``.

Each package declares its public surface once, as a table from submodule
to the names it exports::

    from .._exports import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(
        __name__,
        {
            "conv": ("Conv2d",),
            "module": ("Module", "Parameter"),
        },
    )

The package ``__init__`` then imports nothing.  An access of
``package.Conv2d`` imports ``package.conv`` if it is not loaded yet (PEP
562 ``__getattr__``) and returns its ``Conv2d``.  The value is not cached
in the package namespace: the package holds no second binding, so a
function replaced in its submodule (a tracer, a test's ``monkeypatch``)
is seen through the package while it is replaced and never after.  The
key ``"."`` names the package itself:
its entries are the package's own submodules (``from . import nn``) or
names its ``__init__`` binds directly, such as ``__version__``.

``repro.lint`` reads the same table out of the AST: RL004 checks every
entry against the names its submodule binds, and the call graph follows
an entry as it follows ``from .sub import name``.  So the table must stay
a literal ``dict`` of string tuples in the call.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from its table.

    Parameters
    ----------
    package:
        The package's ``__name__``; it must already be in ``sys.modules``
        (true while its ``__init__`` runs).
    table:
        Submodule name (relative to ``package``, ``"."`` for the package
        itself) to the names exported from it.
    """
    origin = {name: sub for sub, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = f"{package}.{name}" if sub == "." else f"{package}.{sub}"
        # The import statement's machinery: `-X importtime` then times
        # the submodule on its own line.
        __import__(module)
        value = sys.modules[module]
        return value if sub == "." else getattr(value, name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, [name for names in table.values() for name in names]
