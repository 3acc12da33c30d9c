"""Smoke tests: runnable examples and documentation consistency.

Examples rot silently unless executed; the faster ones run here in full
(the heavyweight market-basket sweep is exercised through its library
calls elsewhere).  The docs test pins DESIGN.md's layout section to the
actual tree so the two cannot drift.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_example(name: str) -> None:
    path = REPO_ROOT / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved_argv = sys.argv
    sys.argv = [str(path)]
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = saved_argv


class TestExamplesRun:
    def test_quickstart(self, capsys):
        _run_example("quickstart")
        output = capsys.readouterr().out
        assert "Corollary 4 optimum" in output

    def test_learn_monotone(self, capsys):
        _run_example("learn_monotone")
        output = capsys.readouterr().out
        assert "matching(10)" in output
        assert "Corollary 26" in output

    def test_transversal_toolbox(self, capsys):
        _run_example("transversal_toolbox")
        output = capsys.readouterr().out
        assert "['AD', 'CD']" in output

    def test_episode_mining(self, capsys):
        _run_example("episode_mining")
        output = capsys.readouterr().out
        assert "RepresentationError" in output


class TestDocsConsistency:
    @pytest.mark.parametrize(
        "relative",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/THEOREMS.md",
            "docs/API.md",
        ],
    )
    def test_documents_exist_and_are_substantial(self, relative):
        path = REPO_ROOT / relative
        assert path.is_file(), relative
        assert len(path.read_text(encoding="utf-8")) > 1000, relative

    def test_design_layout_matches_tree(self):
        """DESIGN.md's layout block names exactly the modules of the tree.

        Each ``src/repro`` line names the modules of one package
        directory (its first token, or the package root when that token
        is a module); indented lines continue the entry above.  Every
        module there must exist, and every module of the tree but the
        ``__init__.py`` files must be named under its own directory.
        """
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        start = design.index("src/repro/")
        end = design.index("```", start)
        lines = design[start:end].splitlines()[1:]
        named: dict[str, set[str]] = {}
        package = ""
        while lines and lines[0].startswith("  "):
            line = lines.pop(0)
            tokens = line.split()
            if not line.startswith("   "):
                package = tokens[0] if tokens[0].endswith("/") else ""
            named.setdefault(package, set()).update(
                token for token in tokens if token.endswith(".py")
            )
        source = REPO_ROOT / "src" / "repro"
        for package, modules in named.items():
            for module in modules:
                assert (source / package / module).is_file(), (
                    f"DESIGN.md names missing module {package}{module}"
                )
        for path in source.rglob("*.py"):
            if path.name == "__init__.py":
                continue
            package = path.parent.relative_to(source).as_posix() + "/"
            package = "" if package == "./" else package
            assert path.name in named.get(package, ()), (
                f"DESIGN.md's layout omits src/repro/{package}{path.name}"
            )
        for line in lines:
            for token in line.split():
                if token.endswith(".py"):
                    assert (REPO_ROOT / "examples" / token).is_file(), (
                        f"DESIGN.md names missing example {token}"
                    )

    def test_experiment_benches_exist(self):
        """Every bench target named in DESIGN.md's experiment table."""
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for line in design.splitlines():
            if "`benchmarks/bench_" in line:
                name = line.split("`benchmarks/")[1].split("`")[0]
                assert (REPO_ROOT / "benchmarks" / name).is_file(), name

    def test_all_public_modules_have_docstrings(self):
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            source = path.read_text(encoding="utf-8")
            stripped = source.lstrip()
            if not stripped:
                continue  # empty __init__ stubs
            assert stripped.startswith(('"""', 'r"""')), (
                f"{path} lacks a module docstring"
            )
