"""Repository size report: lines of code per top-level area.

Development utility used to keep an eye on the relative weight of library
code, tests, benchmarks and documentation.
"""

from __future__ import annotations

import pathlib
import sys

AREAS = {
    "library (src/repro)": "src/repro",
    "tests": "tests",
    "benchmarks": "benchmarks",
    "examples": "examples",
    "scripts": "scripts",
}


def count_lines(root: pathlib.Path, suffixes=(".py", ".md", ".toml")) -> int:
    total = 0
    for path in sorted(root.rglob("*")):
        if path.suffix in suffixes and path.is_file():
            total += sum(1 for _ in path.open(encoding="utf-8"))
    return total


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parents[1]
    grand_total = 0
    for label, relative in AREAS.items():
        total = count_lines(repo / relative)
        grand_total += total
        print(f"{label:24s} {total:7d} lines")
    docs = count_lines(repo / "docs", suffixes=(".md",))
    docs += sum(1 for _ in (repo / "README.md").open(encoding="utf-8"))
    print(f"{'documentation':24s} {docs:7d} lines")
    print(f"{'total':24s} {grand_total + docs:7d} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
