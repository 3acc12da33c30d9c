"""Compact JSON for the service: encoded once, spliced into every use.

A state's families — ``Th`` with its supports, ``Bd+`` and ``Bd-`` —
appear in :meth:`~repro.service.state.ServiceCore.digest`, in
``/borders`` and in a hot ``/mine``.  The state is immutable, so its
families are encoded once
(:meth:`~repro.service.incremental.MaintainedTheory.encoded`) and
every later use splices the same bytes into an object with
:func:`object_pieces`; any other ``/mine`` answer is encoded by the
same :func:`encode_families`.  The text is what ``json.dumps(value,
separators=(",", ":"))`` writes, so a digest hashed from pieces equals
the SHA-256 of ``json.dumps(payload, sort_keys=True, separators=(",",
":"))`` over the same values, field for field.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

__all__ = ["Families", "compact", "encode_families", "object_pieces"]


def compact(value) -> bytes:
    """``value`` as compact JSON (ASCII, no optional whitespace)."""
    return json.dumps(value, separators=(",", ":")).encode("ascii")


class Families(NamedTuple):
    """A theory's families as compact JSON arrays."""

    supports: bytes  # [[mask,supp],...] in the state's order
    maximal: bytes
    negative: bytes


def encode_families(
    supports: Mapping[int, int],
    maximal: Sequence[int],
    negative: Sequence[int],
) -> Families:
    """The one encoding of a theory's ``Th`` supports, ``Bd+`` and
    ``Bd-``: a state's, or any other ``/mine`` answer's.  Masks and
    supports are ints, whose JSON is their decimal text, so a pair is
    formatted directly rather than built as a list for
    :func:`json.dumps`."""
    pairs = ",".join([f"[{mask},{supp}]" for mask, supp in supports.items()])
    return Families(
        f"[{pairs}]".encode("ascii"), compact(maximal), compact(negative)
    )


def object_pieces(fields: Iterable[tuple[str, object]]) -> Iterator[bytes]:
    """The compact JSON object of ``fields`` — ``(key, value)`` pairs in
    the order given — as pieces to join or to hash one by one.  A
    ``bytes`` or ``bytearray`` value is JSON already and is spliced as
    it is; any other value is encoded."""
    separator = b"{"
    for key, value in fields:
        yield separator + compact(key) + b":"
        spliced = isinstance(value, (bytes, bytearray))
        yield value if spliced else compact(value)
        separator = b","
    yield b"}" if separator == b"," else b"{}"
