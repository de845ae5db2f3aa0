#!/usr/bin/env python
"""Documentation checks for CI (no third-party dependencies).

Four checks, all fast:

1. **Docstring coverage** (interrogate-style, via ``ast``): every public
   module, class, function, and method under the enforced packages
   (``repro.workloads``, ``repro.sim``, ``repro.cpu``, ``repro.report``,
   ``repro.controller``, ``repro.dram``) must carry a
   docstring. "Public" means not underscore-prefixed; dunders other than
   module-level ``__init__`` are exempt, as are trivial overrides of the
   collection protocol (``__len__``-style dunders).

2. **Doc code blocks import cleanly**: every fenced ``python`` block in
   README.md and DESIGN.md is parsed, and its import statements are
   executed, so renamed or removed APIs break CI instead of readers.

3. **Examples import cleanly**: the import statements of every
   ``examples/*.py`` script are executed, so an example naming a
   removed or renamed API fails CI even though nothing runs it.

4. **Environment knobs are documented, and only live ones**: every
   ``REPRO_*`` name the code under ``src/``, ``benchmarks/`` or
   ``tools/`` mentions must appear in README.md or DESIGN.md, and those
   documents must name no ``REPRO_*`` variable that nothing reads. A
   documented name ending in ``_`` (``REPRO_BENCH_*``) covers every
   name with that prefix.

Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py

Exits non-zero with a per-finding report on failure.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages whose public API must be fully documented. Globbed
#: recursively, so subpackages (``repro.sim.engine``, ...) are enforced
#: automatically.
ENFORCED_PACKAGES = (
    "src/repro/workloads",
    "src/repro/sim",
    "src/repro/cpu",
    "src/repro/report",
    "src/repro/controller",
    "src/repro/dram",
)

#: Documents whose ``python`` code blocks must import cleanly.
DOCUMENTS = ("README.md", "DESIGN.md")

#: Directory of runnable example scripts whose imports must resolve.
EXAMPLES = "examples"

#: Trees whose ``REPRO_*`` environment knobs must be documented.
KNOB_SOURCES = ("src", "benchmarks", "tools")

_KNOB = re.compile(r"\bREPRO_[A-Z_]+")


def iter_python_files() -> Iterator[Path]:
    """Every module of the enforced packages."""
    for package in ENFORCED_PACKAGES:
        yield from sorted((REPO_ROOT / package).rglob("*.py"))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_node(
    node: ast.AST, qualname: str, findings: List[str], path: Path
) -> None:
    """Record a finding if a public def/class lacks a docstring."""
    if ast.get_docstring(node) is None:
        findings.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {qualname}")


def check_docstrings() -> List[str]:
    """Missing-docstring findings across the enforced packages."""
    findings: List[str] = []
    for path in iter_python_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            findings.append(f"{path.relative_to(REPO_ROOT)}:1: module docstring")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_public(node.name):
                _check_node(node, f"class {node.name}", findings, path)
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _is_public(item.name):
                        _check_node(
                            item, f"{node.name}.{item.name}", findings, path
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Module-level functions; methods are handled above.
                if _is_public(node.name) and node.col_offset == 0:
                    _check_node(node, f"def {node.name}", findings, path)
    return findings


def python_blocks(text: str) -> Iterator[Tuple[int, str]]:
    """(start line, code) for each fenced ``python`` block."""
    for match in re.finditer(r"```python\n(.*?)```", text, flags=re.DOTALL):
        line = text[: match.start()].count("\n") + 2
        yield line, match.group(1)


def _import_findings(
    label: str, first_line: int, code: str, nodes: Iterable[ast.AST]
) -> List[str]:
    """Execute each import statement in ``nodes`` (parsed from ``code``,
    which starts at ``first_line`` of ``label``); one finding per
    failure."""
    findings: List[str] = []
    for node in nodes:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        snippet = ast.get_source_segment(code, node) or "<import>"
        try:
            exec(compile(ast.Module([node], []), label, "exec"), {})
        except Exception as error:  # pragma: no cover - report & continue
            findings.append(
                f"{label}:{first_line + node.lineno - 1}: "
                f"{snippet!r} failed: {error}"
            )
    return findings


def check_documents() -> List[str]:
    """Findings for doc code blocks that fail to parse or import."""
    findings: List[str] = []
    for name in DOCUMENTS:
        path = REPO_ROOT / name
        if not path.exists():
            findings.append(f"{name}: document missing")
            continue
        for line, code in python_blocks(path.read_text(encoding="utf-8")):
            try:
                tree = ast.parse(code)
            except SyntaxError as error:
                findings.append(f"{name}:{line}: syntax error: {error}")
                continue
            findings += _import_findings(name, line, code, tree.body)
    return findings


def check_examples(root: Path = REPO_ROOT) -> List[str]:
    """Findings for example scripts whose imports fail (at any depth,
    so an import inside ``main()`` counts too)."""
    findings: List[str] = []
    for path in sorted((root / EXAMPLES).glob("*.py")):
        label = str(path.relative_to(root))
        code = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(code)
        except SyntaxError as error:
            findings.append(f"{label}: syntax error: {error}")
            continue
        findings += _import_findings(label, 1, code, ast.walk(tree))
    return findings


def _knob_names(texts: Iterable[str]) -> Set[str]:
    return {name for text in texts for name in _KNOB.findall(text)}


def _covered(name: str, names: Set[str]) -> bool:
    """``name`` is in ``names`` directly or under a ``..._`` prefix."""
    return any(
        name == other or (other.endswith("_") and name.startswith(other))
        for other in names
    )


def check_env_knobs(root: Path = REPO_ROOT) -> List[str]:
    """Findings for undocumented knobs and documented knobs nobody reads."""
    read = _knob_names(
        path.read_text(encoding="utf-8")
        for tree in KNOB_SOURCES
        for path in sorted((root / tree).rglob("*.py"))
    )
    documented = _knob_names(
        (root / name).read_text(encoding="utf-8")
        for name in DOCUMENTS
        if (root / name).exists()
    )
    findings = [
        f"{name}: read in code but not in {' or '.join(DOCUMENTS)}"
        for name in sorted(read)
        if not _covered(name, documented)
    ]
    findings += [
        f"{name}: documented but read nowhere"
        for name in sorted(documented)
        if not any(_covered(other, {name}) for other in read)
    ]
    return findings


def main() -> int:
    """Run the checks; print findings and return a process exit code."""
    failures = 0
    docstring_findings = check_docstrings()
    if docstring_findings:
        failures += len(docstring_findings)
        print(f"missing docstrings ({len(docstring_findings)}):")
        for finding in docstring_findings:
            print(f"  {finding}")
    document_findings = check_documents()
    if document_findings:
        failures += len(document_findings)
        print(f"broken doc code blocks ({len(document_findings)}):")
        for finding in document_findings:
            print(f"  {finding}")
    example_findings = check_examples()
    if example_findings:
        failures += len(example_findings)
        print(f"broken example imports ({len(example_findings)}):")
        for finding in example_findings:
            print(f"  {finding}")
    knob_findings = check_env_knobs()
    if knob_findings:
        failures += len(knob_findings)
        print(f"environment knob inventory ({len(knob_findings)}):")
        for finding in knob_findings:
            print(f"  {finding}")
    if failures:
        print(f"FAILED: {failures} documentation finding(s)")
        return 1
    modules = sum(1 for _ in iter_python_files())
    examples = sum(1 for _ in (REPO_ROOT / EXAMPLES).glob("*.py"))
    print(f"docs OK: {modules} modules fully documented, "
          f"{len(DOCUMENTS)} documents and {examples} examples import "
          f"cleanly, every REPRO_* knob documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
