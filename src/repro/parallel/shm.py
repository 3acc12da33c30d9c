"""Zero-copy shared-memory publication of the vertical store.

Shipping transaction data to workers by pickling it copies the column
bitmaps into every process.  That copy is pure overhead — the vertical
representation is immutable for the lifetime of a mining run, so every
worker can map the *same* pages.

:class:`ShmVerticalStore` does exactly that.  ``publish()`` packs the
per-item column bitmaps of a
:class:`~repro.datasets.transactions.TransactionDatabase` into one
``multiprocessing.shared_memory`` segment (``n_items`` rows of
``⌈n/64⌉`` little-endian uint64 chunks, or compressed roaring
serializations) and hands out a small picklable :class:`ShmHandle`.
``attach()`` in a worker maps the segment and ``columns()`` rebuilds
the column bitmaps the Eclat kernels consume.

Lifetime discipline — the part that keeps ``/dev/shm`` clean:

* the publishing (owner) side is responsible for ``unlink()``; engines
  register it as a :class:`~repro.parallel.pool.WorkerPool` finalizer
  (run on ``close()``, including after exceptions and interrupts) *and*
  every publisher is recorded in a module registry flushed by a single
  ``atexit`` hook, so even a SIGINT that skips the engine's ``finally``
  cannot leak a segment past interpreter shutdown;
* attaching sides only ``close()`` (unmap); they never unlink.  Workers
  attach with ``track=False`` where the runtime supports it so the
  resource tracker does not double-account segments it does not own
  (forked workers share the parent's tracker, and the owner already
  registered the name).

``unlink()`` and ``close()`` are idempotent; a handle whose segment is
already gone attaches loudly (``FileNotFoundError``), never silently.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import shared_memory as _shared_memory

from repro.datasets.transactions import TransactionDatabase
from repro.util.roaring import RoaringBitmap

__all__ = ["ShmHandle", "ShmVerticalStore"]


# Owner-side segments that have not been unlinked yet.  The atexit hook
# is the last line of defence: normal runs unlink through pool
# finalizers / engine ``finally`` blocks long before interpreter exit.
_LIVE_STORES: dict[str, "ShmVerticalStore"] = {}
_CLEANUP_REGISTERED = False


def _cleanup_live_stores() -> None:  # pragma: no cover - exit hook
    for store in list(_LIVE_STORES.values()):
        store.unlink()


def _register_owner(store: "ShmVerticalStore") -> None:
    global _CLEANUP_REGISTERED
    if not _CLEANUP_REGISTERED:
        atexit.register(_cleanup_live_stores)
        _CLEANUP_REGISTERED = True
    _LIVE_STORES[store.handle.name] = store


@dataclass(frozen=True)
class ShmHandle:
    """Everything a worker needs to attach a published store.

    Small and picklable — this is what travels through the pool
    initializer instead of the transaction data itself.
    """

    name: str
    n_rows: int
    n_items: int
    #: ``"chunked"`` — item-major uint64 chunks (the numpy layout);
    #: ``"roaring"`` — concatenated serialized containers, located by
    #: the ``offsets`` table (``offsets[i]..offsets[i+1]`` is column i).
    layout: str = "chunked"
    offsets: tuple = ()

    @property
    def n_chunks(self) -> int:
        """uint64 chunks per column (at least one, even when empty)."""
        return max(1, (self.n_rows + 63) // 64)

    @property
    def n_bytes(self) -> int:
        """Total payload size of the segment in bytes."""
        if self.layout == "roaring":
            return max(1, self.offsets[-1] if self.offsets else 0)
        return max(1, self.n_items * self.n_chunks * 8)


class ShmVerticalStore:
    """One shared-memory segment holding a database's column bitmaps.

    Build with :meth:`publish` (owner side) or :meth:`attach` (worker
    side); never construct directly.  The owner must eventually call
    :meth:`unlink`; attachers at most :meth:`close`.
    """

    __slots__ = ("handle", "_shm", "_owner", "_closed", "_unlinked")

    def __init__(self, handle: ShmHandle, shm, owner: bool):
        self.handle = handle
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._unlinked = False

    # -- construction -------------------------------------------------------

    @classmethod
    def publish(cls, database: TransactionDatabase) -> "ShmVerticalStore":
        """Export a database's vertical bitmaps into shared memory.

        Int-backed databases use the ``"chunked"`` layout:
        item-major, ``⌈n_rows/64⌉`` little-endian uint64 chunks per
        item.  A ``backend="roaring"`` database publishes its columns
        *compressed* — each column's container serialization is
        concatenated and located by a per-column offsets table on the
        handle, so the segment stays small on sparse data instead of
        inflating to the dense chunked footprint.
        """
        n_rows = database.n_transactions
        n_items = database.n_items
        if database.backend == "roaring":
            blobs = [
                column.serialize() for column in database.tidsets_view()
            ]
            offsets = [0]
            for blob in blobs:
                offsets.append(offsets[-1] + len(blob))
            handle_proto = ShmHandle(
                name="",
                n_rows=n_rows,
                n_items=n_items,
                layout="roaring",
                offsets=tuple(offsets),
            )
            segment = _shared_memory.SharedMemory(
                create=True, size=handle_proto.n_bytes
            )
            handle = ShmHandle(
                name=segment.name,
                n_rows=n_rows,
                n_items=n_items,
                layout="roaring",
                offsets=tuple(offsets),
            )
            buffer = segment.buf
            for blob, start in zip(blobs, offsets):
                buffer[start : start + len(blob)] = blob
        else:
            handle_proto = ShmHandle(
                name="",
                n_rows=n_rows,
                n_items=n_items,
            )
            segment = _shared_memory.SharedMemory(
                create=True, size=handle_proto.n_bytes
            )
            handle = ShmHandle(
                name=segment.name,
                n_rows=n_rows,
                n_items=n_items,
            )
            chunk_bytes = handle.n_chunks * 8
            buffer = segment.buf
            for index, column in enumerate(database.tidsets_view()):
                start = index * chunk_bytes
                buffer[start : start + chunk_bytes] = column.to_bytes(
                    chunk_bytes, "little"
                )
        store = cls(handle, segment, owner=True)
        _register_owner(store)
        return store

    @classmethod
    def attach(cls, handle: ShmHandle) -> "ShmVerticalStore":
        """Map an already-published segment (worker side, zero copy)."""
        try:
            # Opt out of resource tracking where supported: the owner
            # registered the segment and is the one that unlinks it.
            segment = _shared_memory.SharedMemory(
                name=handle.name, track=False
            )
        except TypeError:  # Python < 3.13 has no track= parameter
            segment = _shared_memory.SharedMemory(name=handle.name)
        return cls(handle, segment, owner=False)

    # -- views --------------------------------------------------------------

    def columns(self) -> list:
        """Rebuild the column bitmaps from the shared pages.

        Big ints for the ``"chunked"`` layout,
        :class:`~repro.util.roaring.RoaringBitmap` objects for the
        ``"roaring"`` layout (decoded from the shared serialization —
        the containers themselves are immutable tuples, so workers pay
        only the decode, never a repack).
        """
        handle = self.handle
        buffer = self._shm.buf
        if handle.layout == "roaring":
            offsets = handle.offsets
            return [
                RoaringBitmap.deserialize(
                    bytes(buffer[offsets[index] : offsets[index + 1]])
                )
                for index in range(handle.n_items)
            ]
        chunk_bytes = handle.n_chunks * 8
        return [
            int.from_bytes(
                buffer[index * chunk_bytes : (index + 1) * chunk_bytes],
                "little",
            )
            for index in range(handle.n_items)
        ]

    # -- lifetime -----------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment (idempotent; attachers stop here)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, idempotent)."""
        _LIVE_STORES.pop(self.handle.name, None)
        if not self._owner or self._unlinked:
            self.close()
            return
        self._unlinked = True
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "ShmVerticalStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unlink() if self._owner else self.close()

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        return (
            f"ShmVerticalStore({self.handle.name}, {role}, "
            f"rows={self.handle.n_rows}, items={self.handle.n_items})"
        )
