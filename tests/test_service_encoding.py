"""Encoded once, spliced everywhere: the digest and the read bodies.

:meth:`ServiceCore.digest` hashes the rows from an encoding the core
extends as rows arrive and the families from the one each state keeps;
``/borders`` and a hot ``/mine`` splice the same family bytes.  The
references here pin both to the full encodings they replace — the
digest byte for byte to the SHA-256 of ``json.dumps(_state_payload(...),
sort_keys=True, separators=(",", ":"))`` (:func:`_reference_digest`),
every body value for value to what the handler built from lists before
(:func:`_reference_bodies`) — and ``tests/test_service_model.py``
checks them after every step of its random service histories.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

from hypothesis import strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.service import AdmissionController, ServiceCore
from repro.service.encoding import compact, encode_families, object_pieces
from repro.service.server import _Handler
from repro.service.state import _state_payload
from repro.util.bitset import Universe

# Ids a JSON encoder must escape or that sort unlike their bytes.
_OP_IDS = st.one_of(
    st.none(),
    st.sampled_from(["", '"', "\\", 'q"u\\o', "é", "日本", " ", "a"]),
    st.text(max_size=6),
)


def _reference_digest(core: ServiceCore, ledger: dict) -> str:
    blob = json.dumps(
        _state_payload(core.state, core.seq, ledger),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reference_bodies(core: ServiceCore) -> tuple[dict, ...]:
    """``/borders``, a hot ``/mine`` and one a support above the
    maintained threshold, as the handler built them from lists before
    the families were encoded once."""
    state = core.state
    borders = {
        "seq": core.seq,
        "threshold": state.threshold,
        "maximal": list(state.maximal),
        "negative": list(state.negative),
    }
    mines = []
    for threshold in (state.threshold, state.threshold + 1):
        source, answer = core.mine(threshold)
        mines.append({
            "partial": False,
            "source": source,
            "threshold": answer["threshold"],
            "supports": [
                [mask, supp] for mask, supp in answer["supports"].items()
            ],
            "maximal": list(answer["maximal"]),
            "negative": list(answer["negative"]),
            "queries": answer["queries"],
        })
    return tuple(json.loads(json.dumps(body)) for body in [borders, *mines])


def _served_bodies(core: ServiceCore) -> tuple[dict, ...]:
    """What the HTTP handler sends for ``/borders``, a hot ``/mine``
    with no threshold and with the maintained one given explicitly, and
    a ``/mine`` a support above it."""
    handler = _Handler.__new__(_Handler)
    handler.server = SimpleNamespace(
        core=core,
        admission=AdmissionController(),
        registry=MetricsRegistry(),
        default_deadline=5.0,
        max_deadline=30.0,
    )
    sent: list[tuple[int, bytes]] = []
    handler._send_bytes = lambda status, body, *rest: sent.append(
        (status, body)
    )
    handler._borders(NULL_TRACER)
    handler._mine({}, NULL_TRACER)
    threshold = core.state.threshold
    for min_support in (threshold, threshold + 1):
        handler._mine({"min_support": [str(min_support)]}, NULL_TRACER)
    assert [status for status, _ in sent] == [200] * 4
    return tuple(json.loads(body) for _, body in sent)


def test_object_pieces_equal_sorted_json_dumps():
    """Spliced fragments and encoded values join to ``json.dumps``'s
    compact text."""
    value = {
        "b": [[3, 4], [5, 6]],
        "a": 'q"u\\o é',
        "c": [],
        "d": None,
        "e": 1.5,
    }
    fields = sorted(value.items())
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert b"".join(object_pieces(fields)) == expected.encode("ascii")
    spliced = [
        (key, compact(item) if key == "b" else item) for key, item in fields
    ]
    assert b"".join(object_pieces(spliced)) == expected.encode("ascii")
    assert b"".join(object_pieces(())) == b"{}"


def test_encode_families_equals_json_dumps():
    supports = {0: 9, 1 << 70: 3, 6: 2}
    families = encode_families(supports, (6, 1 << 70), (1, 2 ** 80 + 1))
    assert families.supports == compact([[m, s] for m, s in supports.items()])
    assert families.maximal == compact([6, 1 << 70])
    assert families.negative == compact([1, 2 ** 80 + 1])
    assert encode_families({}, (), ()) == (b"[]", b"[]", b"[]")


def test_a_digest_encodes_only_the_rows_appended_since_the_last(
    monkeypatch,
):
    import repro.service.state as service_state

    encoded = []
    real = service_state.compact

    def spy(value):
        encoded.append(list(value))
        return real(value)

    monkeypatch.setattr(service_state, "compact", spy)
    universe = Universe(["a", "b", "c"])
    with ServiceCore(TransactionDatabase(universe, [3, 5, 7, 6]), 2) as core:
        first = core.digest()
        core.append([1, 2])  # returns the digest it computes
        assert core.digest() != first
        core.set_threshold(3)
    assert encoded == [[3, 5, 7, 6], [1, 2]]
