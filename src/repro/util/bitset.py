"""Integer-bitmask sets over a fixed, ordered universe of items.

Python integers are arbitrary-precision, so a subset of an ``n``-element
universe is represented as an ``int`` whose bit ``i`` is set when the
``i``-th item belongs to the subset.  Bitmask subsets make the hot loops of
this library (transversal minimization, support counting, border
computation) both fast and allocation-free, while the public API of the
framework keeps trafficking in ``frozenset`` objects for readability.

:class:`Universe` is the bridge between the two worlds: it fixes an item
order once and converts back and forth.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import TypeVar

Item = TypeVar("Item", bound=Hashable)


def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (the cardinality of the subset)."""
    return mask.bit_count()


def rank_sorted(masks: Iterable[int]) -> list[int]:
    """``masks`` in the canonical (cardinality, value) order.

    Equal to ``sorted(masks, key=lambda m: (popcount(m), m))``, duplicates
    kept.  Both passes sort on C-level keys — by value, then stably by
    ``int.bit_count`` — so no Python function runs per element.
    """
    ordered = sorted(masks)
    ordered.sort(key=int.bit_count)
    return ordered


def rank_sorted_with(
    masks: Sequence[int], values: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`rank_sorted` ``masks`` with ``values`` permuted alongside.

    ``values[i]`` belongs to ``masks[i]``; both come back as tuples.
    One index permutation, sorted on C-level keys like
    :func:`rank_sorted`, carries both, so no mask is hashed: wide masks
    collide as dict keys (CPython hashes an int modulo ``2**61 - 1``,
    so items ``i`` and ``i + 61`` share a hash).
    """
    order = sorted(range(len(masks)), key=masks.__getitem__)
    order.sort(key=list(map(int.bit_count, masks)).__getitem__)
    return (
        tuple(map(masks.__getitem__, order)),
        tuple(map(values.__getitem__, order)),
    )


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of_indices(indices: Iterable[int]) -> int:
    """Build a mask with exactly the given bit indices set."""
    mask = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        mask |= 1 << index
    return mask


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, including ``0`` and ``mask`` itself.

    Uses the classic ``sub = (sub - 1) & mask`` enumeration, which visits
    all ``2**popcount(mask)`` submasks in decreasing numeric order.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class Universe:
    """A fixed, ordered universe of hashable items with bitmask conversion.

    The universe assigns bit index ``i`` to the ``i``-th item of the input
    sequence.  Items must be unique.  All masks produced or consumed by a
    universe refer to this indexing.

    Example:
        >>> u = Universe("ABCD")
        >>> u.to_mask({"A", "C"})
        5
        >>> sorted(u.to_set(5))
        ['A', 'C']
    """

    __slots__ = ("_items", "_index", "full_mask")

    def __init__(self, items: Iterable[Item]):
        self._items: tuple = tuple(items)
        self._index: dict = {item: i for i, item in enumerate(self._items)}
        if len(self._index) != len(self._items):
            raise ValueError("universe items must be unique")
        self.full_mask: int = (1 << len(self._items)) - 1

    @property
    def items(self) -> tuple:
        """The items of the universe in bit-index order."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        if len(self._items) <= 8:
            return f"Universe({list(self._items)!r})"
        return f"Universe(<{len(self._items)} items>)"

    def index_of(self, item: Item) -> int:
        """Bit index of ``item``; raises ``KeyError`` for foreign items."""
        return self._index[item]

    def item_at(self, index: int) -> Item:
        """Item at bit position ``index``."""
        return self._items[index]

    def to_mask(self, subset: Iterable[Item]) -> int:
        """Convert an iterable of items to its bitmask."""
        mask = 0
        index = self._index
        for item in subset:
            mask |= 1 << index[item]
        return mask

    def to_set(self, mask: int) -> frozenset:
        """Convert a bitmask back to a ``frozenset`` of items."""
        items = self._items
        return frozenset(items[i] for i in iter_bits(mask))

    def to_sorted_tuple(self, mask: int) -> tuple:
        """Items of ``mask`` as a tuple in universe (bit-index) order."""
        items = self._items
        return tuple(items[i] for i in iter_bits(mask))

    def complement(self, mask: int) -> int:
        """The complement of ``mask`` within this universe."""
        return self.full_mask & ~mask

    def singletons(self) -> list[int]:
        """All one-element masks, in item order."""
        return [1 << i for i in range(len(self._items))]

    def label(self, mask: int, sep: str = "") -> str:
        """Human-readable rendering of a mask, e.g. ``'ABC'`` or ``'1,5'``.

        Uses ``sep`` between items; the default empty separator matches the
        paper's shorthand (``ABC`` for ``{A, B, C}``).
        """
        parts = [str(self._items[i]) for i in iter_bits(mask)]
        if mask == 0:
            return "{}"
        if sep == "" and any(len(p) > 1 for p in parts):
            sep = ","
        return sep.join(parts)
