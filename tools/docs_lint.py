#!/usr/bin/env python3
"""Keep the repo's markdown navigable: no dangling links, no ghost names.

Two checks over every tracked ``*.md`` file, and a third over the
documentation (CI gate, sibling of ``tools/metrics_lint.py``):

* **Intra-repo links resolve.** Every relative markdown link
  ``[text](path#fragment)`` must point at a file that exists; when the
  target is itself markdown and carries a ``#fragment``, the fragment
  must match a heading's GitHub-style anchor slug. External schemes
  (``http``/``https``/``mailto``) and same-file ``#anchors`` are checked
  for the anchor only.
* **Mentioned metric names are documented.** Any backticked
  ``match.stage.*`` name appearing in prose must be present in
  ``docs/OBSERVABILITY.md``'s name tables (via
  ``metrics_lint.collect_doc_names``), so the matchmaking docs cannot
  reference a series the operator contract does not promise.
* **Module references resolve.** In ``README.md`` and every markdown
  file reachable from it by relative links, each backticked
  ``repro.x.y`` or ``repro.x.y.Name`` must name a module under
  ``src/repro`` (``x/y.py`` or ``x/y/__init__.py``), or a name that
  module's source defines or imports at top level.  Resolution reads
  files only, so no ``PYTHONPATH`` is needed.  Files outside the linked
  set — the paper's abstract (``PAPER.md``), the change log
  (``CHANGES.md``), related-work notes — quote names as they were and
  are not checked.

Fenced code blocks are skipped entirely, and inline code spans are
skipped for the link check — exemplar snippets are not navigation.

Usage::

    python tools/docs_lint.py            # repo-root defaults
    python tools/docs_lint.py --root .

Exit status 1 on any problem (CI gate), 0 when the docs hold together.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics_lint import _expand_braces, collect_doc_names  # noqa: E402

SKIP_DIRS = {".git", "__pycache__", "node_modules", ".pytest_cache"}

#: ``[text](target)`` — target captured up to the closing paren.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_BACKTICK = re.compile(r"`([^`]+)`")
_STAGE_NAME = re.compile(r"^match\.stage\.[a-z0-9_.{},]+$")
_EXTERNAL = re.compile(r"^[a-z][a-z0-9+.-]*:")
_MODULE_REF = re.compile(r"^repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+$")


def _strip_fences(text: str) -> list[str]:
    """The document's lines with fenced code blocks blanked out."""
    lines, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            lines.append("")
            continue
        lines.append("" if fenced else line)
    return lines


def _anchor_slug(heading: str) -> str:
    """GitHub-style anchor for a heading line's text."""
    text = _HEADING.match(heading).group(1) if _HEADING.match(heading) else heading
    text = text.replace("`", "").strip().lower()
    text = re.sub(r"[^a-z0-9 _-]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path) -> set[str]:
    """All heading anchors a markdown file exposes."""
    anchors: set[str] = set()
    for line in _strip_fences(path.read_text(encoding="utf-8")):
        if _HEADING.match(line):
            anchors.add(_anchor_slug(line))
    return anchors


def markdown_files(root: Path) -> list[Path]:
    """Every lintable markdown file under ``root``."""
    return sorted(
        path
        for path in root.rglob("*.md")
        if not any(part in SKIP_DIRS for part in path.parts)
    )


def _links(path: Path):
    """``(line number, target)`` of every relative link in one file."""
    for number, line in enumerate(_strip_fences(path.read_text(encoding="utf-8")), 1):
        for target in _LINK.findall(_BACKTICK.sub("", line)):
            if not _EXTERNAL.match(target):
                yield number, target


def check_links(path: Path, root: Path) -> list[str]:
    """Dangling-target and dangling-anchor findings for one file."""
    problems: list[str] = []
    for number, target in _links(path):
        raw, _, fragment = target.partition("#")
        if raw:
            resolved = (path.parent / raw).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}:{number}: dangling link {target}"
                )
                continue
        else:
            resolved = path
        if fragment and resolved.suffix == ".md" and resolved.is_file():
            if fragment not in _anchors_of(resolved):
                problems.append(
                    f"{path.relative_to(root)}:{number}: "
                    f"no such anchor #{fragment} in {resolved.name}"
                )
    return problems


def check_stage_names(path: Path, documented: set[str], root: Path) -> list[str]:
    """``match.stage.*`` mentions that the obs contract does not document."""
    problems: list[str] = []
    for number, line in enumerate(_strip_fences(path.read_text(encoding="utf-8")), 1):
        for token in _BACKTICK.findall(line):
            token = token.strip()
            if not _STAGE_NAME.match(token):
                continue
            for name in _expand_braces(token):
                if name not in documented:
                    problems.append(
                        f"{path.relative_to(root)}:{number}: "
                        f"undocumented metric name {name} "
                        "(add it to docs/OBSERVABILITY.md)"
                    )
    return problems


def documentation(root: Path) -> list[Path]:
    """``README.md`` and every markdown file reachable from it by links."""
    readme = (root / "README.md").resolve()
    if not readme.is_file():
        return []
    seen, stack = {readme}, [readme]
    while stack:
        path = stack.pop()
        for _number, target in _links(path):
            linked = (path.parent / target.partition("#")[0]).resolve()
            if linked.suffix == ".md" and linked.is_file() and linked not in seen:
                seen.add(linked)
                stack.append(linked)
    return sorted(seen)


def _module_file(src: Path, parts: list[str]) -> Path | None:
    """The source file of module ``parts`` under ``src``, if there is one."""
    base = src.joinpath(*parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _top_level_names(module: Path) -> set[str]:
    """Names a module's source binds at top level (defs, assignments, imports)."""
    names: set[str] = set()
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def check_module_refs(path: Path, root: Path) -> list[str]:
    """Backticked ``repro.*`` references that name no module or definition."""
    src = root / "src"
    problems: list[str] = []
    for number, line in enumerate(_strip_fences(path.read_text(encoding="utf-8")), 1):
        for token in _BACKTICK.findall(line):
            if not _MODULE_REF.match(token):
                continue
            parts = token.split(".")
            if _module_file(src, parts):
                continue
            owner = _module_file(src, parts[:-1])
            if owner and parts[-1] in _top_level_names(owner):
                continue
            problems.append(
                f"{path.relative_to(root)}:{number}: no module or name {token} under src/"
            )
    return problems


def lint(root: Path) -> list[str]:
    """All findings across the repo's markdown (empty when healthy)."""
    root = root.resolve()
    observability = root / "docs" / "OBSERVABILITY.md"
    documented = collect_doc_names(observability) if observability.is_file() else set()
    problems: list[str] = []
    for path in markdown_files(root):
        problems.extend(check_links(path, root))
        problems.extend(check_stage_names(path, documented, root))
    for path in documentation(root):
        problems.extend(check_module_refs(path, root))
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root to scan")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"docs-lint: no such directory {root}", file=sys.stderr)
        return 2
    problems = lint(root)
    for problem in problems:
        print(f"DANGLING {problem}")
    print(f"{len(markdown_files(root))} markdown file(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
