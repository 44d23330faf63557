"""Documentation stays real: generated pages in sync, referenced files exist.

Covers the docs layer's contracts:

* ``docs/cli.md`` is exactly what ``scripts/gen_cli_reference.py`` renders
  from the live argparse tree (so a new CLI flag cannot ship undocumented);
* every page the README links under ``docs/`` actually exists, every
  docs page cross-link resolves, and every ``from repro... import ...``
  line of the README and the docs pages imports;
* the docstring lint is clean over ``src/repro`` (the same check CI runs).
"""

from __future__ import annotations

import importlib.util
import os
import re

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DOCS = os.path.join(ROOT, "docs")
SCRIPTS = os.path.join(ROOT, "scripts")


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _markdown_links(text: str):
    return re.findall(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)", text)


class TestGeneratedCliReference:
    def test_cli_md_in_sync_with_parser(self):
        generator = _load_script("gen_cli_reference")
        committed = _read(os.path.join(DOCS, "cli.md"))
        assert generator.render() == committed, (
            "docs/cli.md is stale; regenerate with "
            "`PYTHONPATH=src python scripts/gen_cli_reference.py`"
        )

    def test_cli_md_marked_generated(self):
        assert "GENERATED FILE" in _read(os.path.join(DOCS, "cli.md"))

    def test_check_mode_passes_on_committed_file(self):
        generator = _load_script("gen_cli_reference")
        assert generator.main(["--check"]) == 0

    def test_every_subcommand_documented(self):
        from repro.cli import build_parser

        generator = _load_script("gen_cli_reference")
        committed = _read(os.path.join(DOCS, "cli.md"))
        names = [name for name, _, _ in generator._subcommands(build_parser())]
        assert names, "argparse tree exposes no subcommands?"
        for name in names:
            assert f"## `repro {name}`" in committed


class TestDocsTree:
    EXPECTED_PAGES = (
        "architecture.md",
        "serving.md",
        "online-serving.md",
        "performance.md",
        "scenarios.md",
        "benchmarks.md",
        "cli.md",
    )

    @pytest.mark.parametrize("page", EXPECTED_PAGES)
    def test_page_exists(self, page):
        assert os.path.isfile(os.path.join(DOCS, page))

    def test_readme_links_every_page(self):
        readme = _read(os.path.join(ROOT, "README.md"))
        for page in self.EXPECTED_PAGES:
            assert f"docs/{page}" in readme

    def test_readme_relative_links_resolve(self):
        readme = _read(os.path.join(ROOT, "README.md"))
        for target in _markdown_links(readme):
            if "://" in target:
                continue
            assert os.path.exists(os.path.join(ROOT, target)), f"broken README link: {target}"

    @pytest.mark.parametrize("page", EXPECTED_PAGES)
    def test_docs_relative_links_resolve(self, page):
        text = _read(os.path.join(DOCS, page))
        for target in _markdown_links(text):
            if "://" in target:
                continue
            assert os.path.exists(
                os.path.normpath(os.path.join(DOCS, target))
            ), f"broken link in docs/{page}: {target}"

    def test_every_documented_repro_import_resolves(self):
        pages = [os.path.join(ROOT, "README.md")] + [
            os.path.join(DOCS, name) for name in sorted(os.listdir(DOCS)) if name.endswith(".md")
        ]
        lines = [
            (os.path.relpath(path, ROOT), line.strip())
            for path in pages
            for line in _read(path).splitlines()
            if re.match(r"\s*from repro[\w.]* import ", line)
        ]
        assert lines, "no documented imports found"
        for page, line in lines:
            try:
                exec(compile(line, page, "exec"), {})
            except Exception as exc:  # noqa: BLE001 — report the page and line
                pytest.fail(f"{page}: `{line}` fails: {type(exc).__name__}: {exc}")

    def test_example_referenced_by_online_docs_exists(self):
        text = _read(os.path.join(DOCS, "online-serving.md"))
        assert "streaming_drift.py" in text
        assert os.path.isfile(os.path.join(ROOT, "examples", "streaming_drift.py"))


class TestDocstringLint:
    def test_src_tree_is_clean(self):
        linter = _load_script("lint_docstrings")
        problems = linter.lint_tree(os.path.join(ROOT, "src", "repro"))
        assert problems == [], "\n".join(problems)
