"""One name → item registry for everything looked up by name.

Scenarios, faults, switch directory backends, sweeps and experiments
are each declared once, next to their code, and found again by name
from the CLI, the sweep and experiment drivers, and the generated docs
catalogues.  :class:`Registry` is that lookup, written once:

* an item is stored under a canonical name plus optional aliases (the
  historical ``fig*`` scenario ids, the ``auto`` directory backend);
  a name or alias that clashes with an existing entry, or with another
  key of the same item, is rejected;
* ``check`` runs every registration through the owning layer's own
  validation (spec types, declared faults, grid axes, the directory
  superset probe) before the item is stored;
* ``load`` runs once, before the first read, for registries whose
  declarations live in modules a reader may not have imported yet
  (sweeps are declared beside their scenarios);
* an unknown name raises the owner's error class with one message
  form: ``unknown sweep 'x'; known: clock-skew, ...``.

:meth:`Registry.register` returns its argument, so it serves both as a
class decorator (``@register``) and as a plain call
(``register_sweep(SweepSpec(...))``).
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Name → item map with aliases, a registration check and lazy loading.

    ``keys_of(item)`` returns the item's canonical name followed by its
    aliases; ``kind`` names the items in messages and ``error`` is the
    exception class every rejection raises.
    """

    def __init__(
        self,
        kind: str,
        error: type[Exception],
        keys_of: Callable[[T], tuple[str, ...]],
        *,
        check: Optional[Callable[[T], None]] = None,
        load: Optional[Callable[[], None]] = None,
    ) -> None:
        self.kind = kind
        self.error = error
        self.keys_of = keys_of
        self.check = check
        self._load = load
        self._items: dict[str, T] = {}
        self._aliases: dict[str, str] = {}

    def register(self, item: T) -> T:
        """Validate ``item`` and store it under its name and aliases."""
        if self.check is not None:
            self.check(item)
        keys = self.keys_of(item)
        for i, key in enumerate(keys):
            if key in self._items or key in self._aliases or key in keys[:i]:
                raise self.error(f"duplicate {self.kind} name/alias {key!r}")
        self._items[keys[0]] = item
        for alias in keys[1:]:
            self._aliases[alias] = keys[0]
        return item

    def _loaded(self) -> dict[str, T]:
        if self._load is not None:
            # cleared first: declarations may read the registry they fill
            load, self._load = self._load, None
            load()
        return self._items

    def get(self, name: str) -> T:
        """The item registered under ``name`` or one of its aliases."""
        items = self._loaded()
        try:
            return items[self._aliases.get(name, name)]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """Canonical names, sorted (aliases excluded)."""
        return sorted(self._loaded())

    def values(self) -> list[T]:
        """The items, in :meth:`names` order."""
        items = self._loaded()
        return [items[name] for name in sorted(items)]

    def __contains__(self, name: object) -> bool:
        return name in self._loaded() or name in self._aliases

    def __len__(self) -> int:
        return len(self._loaded())

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())
