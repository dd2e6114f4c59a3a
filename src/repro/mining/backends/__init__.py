"""Pluggable support-counting engines.

Two interchangeable engines implement the :class:`CountingBackend`
contract:

* ``"horizontal"`` — the classic transaction-at-a-time hash-tree scan
  (:class:`HorizontalBackend`), extracted from the original counting module.
  The reference engine, and the only one supporting per-transaction
  interleaving (DHP trimming, FUP database reductions).
* ``"vertical"`` — per-item TID bitmasks intersected per candidate
  (:class:`VerticalBackend`).  The order-of-magnitude win on
  counting-dominated workloads.

Use :func:`make_backend` (or :meth:`MiningOptions.make_backend`) to construct
an engine from a configuration, and :data:`BACKEND_NAMES` for the CLI
``--backend`` choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ReproError
from .base import CountingBackend, TransactionSource
from .horizontal import HorizontalBackend
from .vertical import VerticalBackend, build_vertical_index

__all__ = [
    "CountingBackend",
    "TransactionSource",
    "HorizontalBackend",
    "VerticalBackend",
    "MiningOptions",
    "BACKEND_NAMES",
    "make_backend",
    "build_vertical_index",
]

#: Engine registry: name → zero-config factory.
_FACTORIES: dict[str, type[CountingBackend]] = {
    HorizontalBackend.name: HorizontalBackend,
    VerticalBackend.name: VerticalBackend,
}

#: Valid ``--backend`` values, in registry order.
BACKEND_NAMES = tuple(_FACTORIES)


def make_backend(backend: "str | CountingBackend" = HorizontalBackend.name) -> CountingBackend:
    """Build a counting engine from a name (or pass an instance through).

    *backend* is an engine name from :data:`BACKEND_NAMES`, or an
    already-constructed :class:`CountingBackend` (returned unchanged — lets
    callers inject custom engines anywhere a name is accepted).
    """
    if isinstance(backend, CountingBackend):
        return backend
    try:
        factory = _FACTORIES[backend]
    except KeyError:
        raise ReproError(
            f"unknown counting backend {backend!r}; expected one of {', '.join(BACKEND_NAMES)}"
        ) from None
    return factory()


@dataclass(frozen=True)
class MiningOptions:
    """Engine configuration shared by every miner and updater.

    Attributes
    ----------
    backend:
        Counting-engine name (see :data:`BACKEND_NAMES`).
    """

    backend: str = HorizontalBackend.name

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ReproError(
                f"unknown counting backend {self.backend!r}; "
                f"expected one of {', '.join(BACKEND_NAMES)}"
            )

    def make_backend(self) -> CountingBackend:
        """Construct the configured engine."""
        return make_backend(self.backend)
