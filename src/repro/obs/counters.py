"""The event census: how many events of each ``"{layer}.{kind}"``.

:attr:`EventBus.counters` counts the bus's ``events`` when it is read
and returns one of these, so a traced run always comes with a census
without paying a counter bump per emitted event.  Read-only: a census
changes only because the stream it was counted from does.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["CounterRegistry"]


class CounterRegistry:
    """Named counts, read-only; a missing name counts zero."""

    def __init__(self, counts: Optional[Mapping[str, int]] = None):
        self._counts: Dict[str, int] = dict(counts or {})

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def snapshot(self) -> Dict[str, int]:
        """A sorted, independent copy — safe to serialise."""
        return dict(sorted(self._counts.items()))

    def render(self) -> str:
        if not self._counts:
            return "(no counters)"
        width = max(len(k) for k in self._counts)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in sorted(self._counts.items()))
