"""The import contract: a package resolves its exports on first use, and
numpy loads only with the code that runs a numpy kernel.

Every check runs in a fresh interpreter, since this one has imported
most of the library already.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
)

#: Appended to a child's code: prints which modules it loaded.
REPORT = """
import json, sys
print(json.dumps({
    "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    "numpy": "numpy" in sys.modules,
}))
"""


def _run(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; the JSON its last line of
    output holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_repro_loads_only_the_helper():
    loaded = _run("import repro" + REPORT)
    assert loaded == {"repro": ["repro", "repro._lazy"], "numpy": False}


def test_mmcs_transversals_leave_numpy_unloaded():
    loaded = _run("""
from repro import Hypergraph, Universe, minimal_transversals
edges = [{0, 1}, {1, 2}, {2, 0}]
hypergraph = Hypergraph.from_sets(edges, Universe(range(3)))
assert minimal_transversals(hypergraph, method="mmcs") == [3, 5, 6]
""" + REPORT)
    assert loaded["numpy"] is False


def test_cli_transversals_leave_numpy_unloaded():
    loaded = _run("""
import runpy, sys
sys.argv = ["repro", "transversals", "--edges", "0 1, 1 2, 2 0",
            "--method", "mmcs"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as done:
    assert done.code == 0, done.code
""" + REPORT)
    assert loaded["numpy"] is False
    assert "repro.service" not in loaded["repro"]
    assert not any(m.startswith("repro.mining") for m in loaded["repro"])


def test_read_fimi_loads_numpy(tmp_path):
    path = tmp_path / "tiny.dat"
    path.write_text("1 2\n2 3\n")
    loaded = _run("""
import json, sys
from repro.datasets import read_fimi
before = "numpy" in sys.modules
database = read_fimi(sys.argv[1])
assert database.support_counts([0b11]) == [1]
print(json.dumps([before, "numpy" in sys.modules]))
""", str(path))
    assert loaded == [False, True]


def test_every_export_resolves_to_its_defining_module():
    errors = _run("""
import importlib, inspect, json, sys
errors = []
for name in json.loads(sys.argv[1]):
    package = importlib.import_module(name)
    table = package._EXPORTS
    listed = [export for names in table.values() for export in names]
    if len(set(listed)) != len(listed):
        errors.append(f"{name}: an export is listed twice")
    if sorted(set(package.__all__) - {"__version__"}) != sorted(listed):
        errors.append(f"{name}: __all__ is not the table")
    listing = dir(package)
    for module, names in table.items():
        for export in names:
            held = getattr(importlib.import_module(module), export)
            if getattr(package, export) is not held:
                errors.append(f"{name}.{export} is not {module}.{export}")
            if export not in listing:
                errors.append(f"dir({name}) lacks {export}")
    try:
        getattr(package, "no_such_export")
        errors.append(f"{name}.no_such_export resolved")
    except AttributeError:
        pass
from repro.mining import bounds
if not inspect.ismodule(bounds):
    errors.append("from repro.mining import bounds is not the submodule")
if "numpy" in sys.modules:
    errors.append("resolving every export loaded numpy")
print(json.dumps(errors))
""", json.dumps(PACKAGES))
    assert errors == []


def _shared_names() -> list[tuple[str, str]]:
    """(package, export) pairs where the export names a submodule."""
    pairs = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
        pairs += [(name, export) for export in package.__all__
                  if export in submodules]
    return pairs


SHARED = _shared_names()


def test_the_shared_names_are_the_four_miners():
    assert set(SHARED) == {("repro.mining", name)
                           for name in ("apriori", "eclat", "levelwise",
                                        "maxminer")}


@pytest.mark.parametrize("package, export", SHARED)
def test_importing_the_submodule_first_keeps_the_export(package, export):
    """``import repro.mining.eclat`` binds the module to the package
    attribute; a lazily bound export would then lose to it."""
    same = _run(f"""
import json, sys
import {package}.{export}
from {package} import {export} as bound
print(json.dumps(bound is sys.modules["{package}.{export}"].{export}))
""")
    assert same is True
