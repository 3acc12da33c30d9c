"""Zero-dependency roaring-style compressed bitmaps for vertical covers.

The default backend phrases Eclat covers as arbitrary-precision
integers: one bit per transaction.  At millions of rows a single dense
cover costs ``n/8`` bytes (125 KB at 1M rows) *regardless of content*,
and the depth-first miner memoizes one cover per live branch — the
memory wall the ROADMAP calls out.  Roaring bitmaps (Chambi et al.;
the representation scikit-mine's SLIM miner uses for exactly this
workload) fix that by splitting the row space into 64Ki-row *chunks*
keyed by the high 16 bits of the row index and storing each chunk in
whichever of three *containers* is smallest:

* **array** — the sorted low-16-bit values, 2 bytes each (≤ 4096 rows);
* **bitmap** — a plain 8 KiB bit field (> 4096 rows, irregular);
* **run** — ``(start, length−1)`` pairs, 4 bytes per maximal run of
  consecutive rows (dense *or* sparse, as long as rows cluster).

Every constructor and every operation canonicalizes its result: a run
container is used exactly when ``4·n_runs < min(2·card, 8192)``, else
an array when ``card ≤ 4096``, else a bitmap.  Canonical form makes
structural equality (`__eq__`) coincide with set equality and makes
:meth:`RoaringBitmap.byte_size` a deterministic function of the set —
the quantity the Eclat tidset→diffset switch compares.

Containers are immutable ``(kind, payload, cardinality)`` tuples, so
bitmaps sharing containers (``with_appended``, ``andnot`` on disjoint
chunks) is safe.  :meth:`to_int` converts to the big-int
encoding bit for bit — the cross-backend equivalence oracle — and
:meth:`serialize`/:meth:`deserialize` give a flat bytes layout suitable
for the shared-memory plane and for compact pickling (``__reduce__``).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from sys import byteorder as _BYTEORDER

#: Rows per chunk (the low-16-bit address space of one container).
CHUNK = 1 << 16
#: Bytes of a bitmap container's payload.
_BITMAP_BYTES = CHUNK // 8
#: Largest cardinality an array container may hold (2·card ≤ 8 KiB).
_ARRAY_MAX = 4096

_KIND_ARRAY = 0
_KIND_BITMAP = 1
_KIND_RUN = 2

#: Set-bit positions of every byte value, for bitmap-payload iteration.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256)
)

_Container = tuple  # (kind, payload, cardinality)


def _u16_bytes(values: array) -> bytes:
    """``array('H')`` payload as little-endian bytes (platform-stable)."""
    if _BYTEORDER == "big":  # pragma: no cover - x86/arm CI are LE
        values = array("H", values)
        values.byteswap()
    return values.tobytes()


def _u16_from_bytes(data: bytes) -> array:
    values = array("H")
    values.frombytes(data)
    if _BYTEORDER == "big":  # pragma: no cover
        values.byteswap()
    return values


def _run_count_sorted(values) -> int:
    """Number of maximal runs in a strictly increasing sequence."""
    runs = 0
    previous = -2
    for value in values:
        if value != previous + 1:
            runs += 1
        previous = value
    return runs


def _pick_kind(card: int, n_runs: int) -> int:
    plain = 2 * card if card <= _ARRAY_MAX else _BITMAP_BYTES
    if 4 * n_runs < plain:
        return _KIND_RUN
    return _KIND_ARRAY if card <= _ARRAY_MAX else _KIND_BITMAP


def _runs_from_sorted(values) -> array:
    runs = array("H")
    start = previous = -2
    for value in values:
        if value != previous + 1:
            if start >= 0:
                runs.append(start)
                runs.append(previous - start)
            start = value
        previous = value
    if start >= 0:
        runs.append(start)
        runs.append(previous - start)
    return runs


def _container_from_sorted(values) -> _Container:
    """Canonical container from strictly increasing values in [0, 64Ki)."""
    card = len(values)
    kind = _pick_kind(card, _run_count_sorted(values))
    if kind == _KIND_RUN:
        return (_KIND_RUN, _runs_from_sorted(values), card)
    if kind == _KIND_ARRAY:
        return (_KIND_ARRAY, array("H", values), card)
    bits = bytearray(_BITMAP_BYTES)
    for value in values:
        bits[value >> 3] |= 1 << (value & 7)
    return (_KIND_BITMAP, int.from_bytes(bits, "little"), card)


def _container_from_int(bits: int) -> _Container:
    """Canonical container from a non-zero chunk bit field."""
    card = bits.bit_count()
    n_runs = (bits ^ (bits << 1)).bit_count() // 2
    kind = _pick_kind(card, n_runs)
    if kind == _KIND_BITMAP:
        return (_KIND_BITMAP, bits, card)
    if kind == _KIND_RUN:
        runs = array("H")
        position = 0
        while bits:
            zeros = (bits & -bits).bit_length() - 1
            bits >>= zeros
            position += zeros
            length = (~bits & (bits + 1)).bit_length() - 1
            runs.append(position)
            runs.append(length - 1)
            bits >>= length
            position += length
        return (_KIND_RUN, runs, card)
    values = array("H")
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    for byte_index, byte in enumerate(data):
        if byte:
            base = byte_index << 3
            for bit in _BYTE_BITS[byte]:
                values.append(base + bit)
    return (_KIND_ARRAY, values, card)


def _container_to_int(container: _Container) -> int:
    kind, payload, _ = container
    if kind == _KIND_BITMAP:
        return payload
    if kind == _KIND_ARRAY:
        bits = bytearray(_BITMAP_BYTES)
        for value in payload:
            bits[value >> 3] |= 1 << (value & 7)
        return int.from_bytes(bits, "little")
    bits = 0
    for index in range(0, len(payload), 2):
        length = payload[index + 1] + 1
        bits |= ((1 << length) - 1) << payload[index]
    return bits


def _membership_bytes(container: _Container) -> bytes:
    """8 KiB little-endian bit field of a bitmap/run container."""
    kind, payload, _ = container
    bits = payload if kind == _KIND_BITMAP else _container_to_int(container)
    return bits.to_bytes(_BITMAP_BYTES, "little")


def _iter_container(container: _Container) -> Iterator[int]:
    kind, payload, _ = container
    if kind == _KIND_ARRAY:
        yield from payload
    elif kind == _KIND_RUN:
        for index in range(0, len(payload), 2):
            start = payload[index]
            yield from range(start, start + payload[index + 1] + 1)
    else:
        data = payload.to_bytes(_BITMAP_BYTES, "little")
        for byte_index, byte in enumerate(data):
            if byte:
                base = byte_index << 3
                for bit in _BYTE_BITS[byte]:
                    yield base + bit


def _and_containers(a: _Container, b: _Container) -> _Container | None:
    """Canonical intersection of two containers (None when empty)."""
    if a[2] == CHUNK:  # a is the full chunk
        return b
    if b[2] == CHUNK:
        return a
    a_kind, b_kind = a[0], b[0]
    if a_kind == _KIND_ARRAY and b_kind == _KIND_ARRAY:
        common = frozenset(a[1]).intersection(b[1])
        if not common:
            return None
        return _container_from_sorted(sorted(common))
    if a_kind == _KIND_ARRAY or b_kind == _KIND_ARRAY:
        values, other = (a[1], b) if a_kind == _KIND_ARRAY else (b[1], a)
        member = _membership_bytes(other)
        kept = [v for v in values if member[v >> 3] >> (v & 7) & 1]
        if not kept:
            return None
        return _container_from_sorted(kept)
    bits = _container_to_int(a) & _container_to_int(b)
    if not bits:
        return None
    return _container_from_int(bits)


def _andnot_containers(a: _Container, b: _Container) -> _Container | None:
    """Canonical difference ``a \\ b`` (None when empty)."""
    if b[2] == CHUNK:
        return None
    a_kind, b_kind = a[0], b[0]
    if a_kind == _KIND_ARRAY:
        if b_kind == _KIND_ARRAY:
            drop = frozenset(b[1])
            kept = [v for v in a[1] if v not in drop]
        else:
            member = _membership_bytes(b)
            kept = [v for v in a[1] if not member[v >> 3] >> (v & 7) & 1]
        if not kept:
            return None
        return _container_from_sorted(kept)
    bits = _container_to_int(a)
    if b_kind == _KIND_ARRAY:
        data = bytearray(bits.to_bytes(_BITMAP_BYTES, "little"))
        for value in b[1]:
            data[value >> 3] &= ~(1 << (value & 7)) & 0xFF
        bits = int.from_bytes(data, "little")
    else:
        bits &= ~_container_to_int(b)
    if not bits:
        return None
    return _container_from_int(bits)


def _container_payload_bytes(container: _Container) -> int:
    kind, payload, card = container
    if kind == _KIND_ARRAY:
        return 2 * card
    if kind == _KIND_BITMAP:
        return _BITMAP_BYTES
    return 2 * len(payload)


class RoaringBitmap:
    """An immutable compressed set of non-negative row indices.

    Mirrors the big-int cover API the vertical miners rely on —
    :meth:`bit_count` (so :func:`repro.util.bitset.popcount` applies
    unchanged), ``&``, :meth:`andnot` (the ``x & ~y`` of the int world),
    truthiness, and ascending iteration — plus the compressed-world
    extras: :meth:`byte_size`, :meth:`serialize`, :meth:`to_int`.
    """

    __slots__ = ("_keys", "_cons", "_card")

    def __init__(self):
        self._keys: list[int] = []
        self._cons: list[_Container] = []
        self._card = 0

    @classmethod
    def _assemble(
        cls, keys: list[int], cons: list[_Container]
    ) -> "RoaringBitmap":
        bitmap = cls.__new__(cls)
        bitmap._keys = keys
        bitmap._cons = cons
        bitmap._card = sum(con[2] for con in cons)
        return bitmap

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "RoaringBitmap":
        """Build from any iterable of row indices (order-free, deduped)."""
        buckets: dict[int, list[int]] = {}
        for index in indices:
            if index < 0:
                raise ValueError("row indices must be non-negative")
            buckets.setdefault(index >> 16, []).append(index & 0xFFFF)
        keys = sorted(buckets)
        cons = [
            _container_from_sorted(sorted(set(buckets[key]))) for key in keys
        ]
        return cls._assemble(keys, cons)

    @classmethod
    def from_int(cls, value: int) -> "RoaringBitmap":
        """Build from the big-int bitset encoding (bit ``t`` = row ``t``)."""
        if value < 0:
            raise ValueError("bitset ints are non-negative")
        keys: list[int] = []
        cons: list[_Container] = []
        if value:
            data = value.to_bytes((value.bit_length() + 7) // 8, "little")
            for key in range((len(data) + _BITMAP_BYTES - 1) // _BITMAP_BYTES):
                chunk = data[key * _BITMAP_BYTES : (key + 1) * _BITMAP_BYTES]
                bits = int.from_bytes(chunk, "little")
                if bits:
                    keys.append(key)
                    cons.append(_container_from_int(bits))
        return cls._assemble(keys, cons)

    @classmethod
    def full(cls, n_rows: int) -> "RoaringBitmap":
        """The set ``{0, …, n_rows − 1}`` (the tidset of ∅)."""
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        keys: list[int] = []
        cons: list[_Container] = []
        for key in range(n_rows >> 16):
            keys.append(key)
            cons.append((_KIND_RUN, array("H", (0, CHUNK - 1)), CHUNK))
        remainder = n_rows & 0xFFFF
        if remainder:
            keys.append(n_rows >> 16)
            cons.append((_KIND_RUN, array("H", (0, remainder - 1)), remainder))
        return cls._assemble(keys, cons)

    # -- queries ------------------------------------------------------------

    def bit_count(self) -> int:
        """Cardinality (named after ``int.bit_count`` so popcount works)."""
        return self._card

    def __bool__(self) -> bool:
        return self._card > 0

    def __len__(self) -> int:
        return self._card

    def __iter__(self) -> Iterator[int]:
        for key, con in zip(self._keys, self._cons):
            base = key << 16
            for value in _iter_container(con):
                yield base + value

    def max_index(self) -> int:
        """Largest member, or ``-1`` when empty."""
        if not self._keys:
            return -1
        kind, payload, _ = self._cons[-1]
        if kind == _KIND_ARRAY:
            top = payload[-1]
        elif kind == _KIND_RUN:
            top = payload[-2] + payload[-1]
        else:
            top = payload.bit_length() - 1
        return (self._keys[-1] << 16) + top

    def to_int(self) -> int:
        """The exact big-int bitset encoding (cross-backend oracle)."""
        if not self._keys:
            return 0
        buffer = bytearray((self._keys[-1] + 1) * _BITMAP_BYTES)
        for key, con in zip(self._keys, self._cons):
            offset = key * _BITMAP_BYTES
            buffer[offset : offset + _BITMAP_BYTES] = _membership_bytes(con)
        return int.from_bytes(buffer, "little")

    def byte_size(self) -> int:
        """Serialized size in bytes — the miner's memory-cost signal."""
        return 4 + sum(
            7 + _container_payload_bytes(con) for con in self._cons
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        # Canonical form makes structural equality set equality.
        return (
            self._card == other._card
            and self._keys == other._keys
            and self._cons == other._cons
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"RoaringBitmap({self._card} rows, "
            f"{len(self._cons)} containers, {self.byte_size()} bytes)"
        )

    # -- set algebra --------------------------------------------------------

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        keys: list[int] = []
        cons: list[_Container] = []
        a_keys, b_keys = self._keys, other._keys
        i = j = 0
        len_a, len_b = len(a_keys), len(b_keys)
        while i < len_a and j < len_b:
            a_key, b_key = a_keys[i], b_keys[j]
            if a_key == b_key:
                con = _and_containers(self._cons[i], other._cons[j])
                if con is not None:
                    keys.append(a_key)
                    cons.append(con)
                i += 1
                j += 1
            elif a_key < b_key:
                i += 1
            else:
                j += 1
        return RoaringBitmap._assemble(keys, cons)

    def andnot(self, other: "RoaringBitmap") -> "RoaringBitmap":
        """``self \\ other`` — the compressed ``x & ~y``."""
        keys: list[int] = []
        cons: list[_Container] = []
        b_index = {key: con for key, con in zip(other._keys, other._cons)}
        for key, con in zip(self._keys, self._cons):
            b_con = b_index.get(key)
            if b_con is None:
                keys.append(key)
                cons.append(con)
                continue
            result = _andnot_containers(con, b_con)
            if result is not None:
                keys.append(key)
                cons.append(result)
        return RoaringBitmap._assemble(keys, cons)

    # -- structural updates (immutable; containers are shared) --------------

    def with_appended(self, indices: Iterable[int]) -> "RoaringBitmap":
        """A new bitmap with rows appended past the current maximum.

        The incremental-service fast path: every new index must exceed
        :meth:`max_index`, so untouched containers are shared and only
        the boundary chunk is rebuilt — O(appended + one chunk).
        """
        floor = self.max_index()
        buckets: dict[int, list[int]] = {}
        for index in indices:
            if index <= floor:
                raise ValueError(
                    f"appended row {index} not past current max {floor}"
                )
            floor = index
            buckets.setdefault(index >> 16, []).append(index & 0xFFFF)
        if not buckets:
            return self
        keys = list(self._keys)
        cons = list(self._cons)
        for key in sorted(buckets):
            lows = buckets[key]
            if keys and keys[-1] == key:
                merged = list(_iter_container(cons[-1]))
                merged.extend(lows)
                cons[-1] = _container_from_sorted(merged)
            else:
                keys.append(key)
                cons.append(_container_from_sorted(lows))
        return RoaringBitmap._assemble(keys, cons)

    # -- serialization ------------------------------------------------------

    def serialize(self) -> bytes:
        """Flat bytes layout: u32 count, then per-container
        ``u16 key · u8 kind · u32 payload_bytes`` headers, then payloads
        (array/run values little-endian u16, bitmaps 8 KiB bit fields).
        ``len(serialize()) == byte_size()`` by construction.
        """
        parts = [len(self._cons).to_bytes(4, "little")]
        payloads = []
        for key, con in zip(self._keys, self._cons):
            kind, payload, _ = con
            if kind == _KIND_BITMAP:
                blob = payload.to_bytes(_BITMAP_BYTES, "little")
            else:
                blob = _u16_bytes(payload)
            parts.append(
                key.to_bytes(2, "little")
                + bytes((kind,))
                + len(blob).to_bytes(4, "little")
            )
            payloads.append(blob)
        return b"".join(parts + payloads)

    @classmethod
    def deserialize(cls, data: bytes) -> "RoaringBitmap":
        """Inverse of :meth:`serialize` (accepts any buffer protocol)."""
        data = bytes(data)
        count = int.from_bytes(data[:4], "little")
        keys: list[int] = []
        cons: list[_Container] = []
        offset = 4 + 7 * count
        header = 4
        for _ in range(count):
            key = int.from_bytes(data[header : header + 2], "little")
            kind = data[header + 2]
            n_bytes = int.from_bytes(data[header + 3 : header + 7], "little")
            header += 7
            blob = data[offset : offset + n_bytes]
            if len(blob) != n_bytes:
                raise ValueError("truncated roaring payload")
            offset += n_bytes
            if kind == _KIND_BITMAP:
                payload = int.from_bytes(blob, "little")
                card = payload.bit_count()
            elif kind == _KIND_ARRAY:
                payload = _u16_from_bytes(blob)
                card = len(payload)
            elif kind == _KIND_RUN:
                payload = _u16_from_bytes(blob)
                card = sum(
                    payload[i + 1] + 1 for i in range(0, len(payload), 2)
                )
            else:
                raise ValueError(f"unknown container kind {kind}")
            keys.append(key)
            cons.append((kind, payload, card))
        return cls._assemble(keys, cons)

    def __reduce__(self):
        # Pickle through the flat layout: workers receiving covers pay
        # the compressed size, not the decoded container objects.
        return (RoaringBitmap.deserialize, (self.serialize(),))
