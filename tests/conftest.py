"""Shared fixtures and hypothesis strategies for the test suite.

Also provides a per-test timeout fallback: the ``timeout`` ini option
in ``pyproject.toml`` is normally handled by the ``pytest-timeout``
plugin, but that dependency is optional — when it is absent, a
SIGALRM-based shim here enforces the same ceiling (on platforms with
SIGALRM; elsewhere the ceiling is simply not enforced).
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.datasets.planted import PlantedTheory
from repro.hypergraph.hypergraph import Hypergraph
from repro.util.antichain import minimize_masks
from repro.util.bitset import Universe

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        action="store",
        type=int,
        default=None,
        metavar="N",
        help="worker-process count exercised by the parallel "
        "determinism suite (default 2; CI runs it at 2 and 4)",
    )
    if not _HAVE_PYTEST_TIMEOUT:
        # Declare the ini key pytest-timeout would have registered, so
        # `timeout = ...` in pyproject.toml stays valid without it.
        parser.addini(
            "timeout",
            "per-test timeout in seconds (SIGALRM fallback shim)",
            default="0",
        )


@pytest.fixture(scope="session")
def worker_count(request) -> int:
    """The worker count under test (the pytest ``--workers`` option)."""
    value = request.config.getoption("--workers")
    return 2 if value is None else max(2, value)


if not _HAVE_PYTEST_TIMEOUT:
    import signal

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        seconds = float(item.config.getini("timeout") or 0)
        if seconds <= 0 or not hasattr(signal, "SIGALRM"):
            return (yield)

        def _expired(signum, frame):
            pytest.fail(
                f"test exceeded the {seconds:g}s ceiling "
                "(conftest SIGALRM shim)",
                pytrace=False,
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def figure1_universe() -> Universe:
    """The four-attribute universe of the paper's Figure 1."""
    return Universe("ABCD")


@pytest.fixture
def figure1_theory(figure1_universe: Universe) -> PlantedTheory:
    """The Figure 1 problem: ``MTh = {ABC, BD}``."""
    return PlantedTheory.from_sets(figure1_universe, [{"A", "B", "C"}, {"B", "D"}])


def labels(universe: Universe, masks) -> list[str]:
    """Render masks with the paper's shorthand, sorted, for assertions."""
    return sorted(universe.label(mask) for mask in masks)


@st.composite
def mask_families(
    draw,
    max_vertices: int = 8,
    max_edges: int = 6,
    allow_empty_family: bool = True,
    min_vertices: int = 1,
):
    """Strategy: ``(n, family)`` — a family of non-empty masks over n bits."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    n_edges = draw(
        st.integers(min_value=0 if allow_empty_family else 1, max_value=max_edges)
    )
    family = draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << n) - 1),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    return n, family


@st.composite
def unchecked_families(draw):
    """``(universe, family)`` over 3–70 vertices, so masks both under and
    over one 64-bit word occur, seeded with every way to break
    simplicity: duplicates, nested pairs, empty edges and bits outside
    the universe."""
    n = draw(st.one_of(st.integers(3, 64), st.integers(65, 70)))
    full = (1 << n) - 1
    family = draw(st.lists(st.integers(0, full), max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("duplicate", "superset", "outside")))
        if kind == "outside":
            family.append(
                draw(st.integers(0, full)) | 1 << draw(st.integers(n, n + 66))
            )
        elif family:
            base = draw(st.sampled_from(family))
            extra = draw(st.integers(0, full)) if kind == "superset" else 0
            family.append(base | extra)
    return Universe(range(n)), draw(st.permutations(family))


@st.composite
def simple_hypergraphs(draw, max_vertices: int = 8, max_edges: int = 6):
    """Strategy: a non-empty simple :class:`Hypergraph`."""
    n, family = draw(
        mask_families(
            max_vertices=max_vertices,
            max_edges=max_edges,
            allow_empty_family=False,
        )
    )
    minimized = minimize_masks(family)
    universe = Universe(range(n))
    return Hypergraph(universe, minimized, validate=False)


@st.composite
def planted_theories(draw, max_attributes: int = 8, max_maximal: int = 5):
    """Strategy: a :class:`PlantedTheory` over a small universe."""
    n = draw(st.integers(min_value=1, max_value=max_attributes))
    n_maximal = draw(st.integers(min_value=0, max_value=max_maximal))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << n) - 1),
            min_size=n_maximal,
            max_size=n_maximal,
        )
    )
    return PlantedTheory(Universe(range(n)), tuple(masks))
