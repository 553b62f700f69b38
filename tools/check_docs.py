#!/usr/bin/env python
"""Documentation checks for CI: link integrity + runnable examples.

Two passes over the repository's markdown:

1. **Link check** — every relative link ``[text](target)`` in every
   tracked ``*.md`` must resolve: the target file must exist, and a
   ``#fragment`` must match a heading anchor (GitHub slugification) in
   the target. External ``http(s):``/``mailto:`` links are skipped
   (CI has no network); links inside fenced code blocks are ignored.
2. **Doctest** — ``>>>`` examples in the docs listed in
   :data:`DOCTEST_FILES` are executed with :mod:`doctest` (the
   package importable from ``src/``), so the observability and
   architecture guides cannot drift from the API they document.

Run:  PYTHONPATH=src python tools/check_docs.py
Exit status is the number of failing files (0 = everything passes).
"""

from __future__ import annotations

import doctest
import os
import re
import sys
from typing import Dict, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Docs whose examples must execute (satellite guides with ``>>>``).
DOCTEST_FILES = ("docs/observability.md", "docs/architecture.md",
                 "docs/transformations.md", "docs/service.md",
                 "docs/fuzzing.md", "docs/search.md",
                 "docs/performance.md")

#: Directories never scanned for markdown.
SKIP_DIRS = {".git", ".github", "node_modules", "__pycache__",
             ".pytest_cache", ".repro-store"}

_FENCE = re.compile(r"^(```|~~~)")
_LINK = re.compile(r"(?<!\!)\[[^\]^\[]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
_IMAGE = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files() -> List[str]:
    out = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for name in files:
            if name.endswith(".md"):
                out.append(os.path.join(root, name))
    return sorted(out)


def _strip_fences(text: str) -> str:
    """Blank out fenced code blocks (links inside them are examples)."""
    lines, inside = [], False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            inside = not inside
            lines.append("")
            continue
        lines.append("" if inside else line)
    return "\n".join(lines)


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's anchor slug for a heading line (approximation of the
    published algorithm: markdown markup dropped, lowercased,
    punctuation removed, spaces to hyphens, duplicates numbered)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = re.sub(r"[*_]", "", text)                      # emphasis
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def anchors_of(path: str, cache: Dict[str, Set[str]]) -> Set[str]:
    if path not in cache:
        seen: Dict[str, int] = {}
        found: Set[str] = set()
        with open(path, encoding="utf-8") as handle:
            text = _strip_fences(handle.read())
        for line in text.splitlines():
            match = _HEADING.match(line)
            if match:
                found.add(github_slug(match.group(2), seen))
        cache[path] = found
    return cache[path]


def check_links(paths: List[str]) -> List[str]:
    errors: List[str] = []
    anchor_cache: Dict[str, Set[str]] = {}
    for path in paths:
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as handle:
            text = _strip_fences(handle.read())
        targets = [m.group(1) for m in _LINK.finditer(text)]
        targets += [m.group(1) for m in _IMAGE.finditer(text)]
        for target in targets:
            if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):
                continue  # http(s), mailto, ...
            file_part, _, fragment = target.partition("#")
            if file_part:
                dest = os.path.normpath(
                    os.path.join(os.path.dirname(path), file_part))
                if not os.path.exists(dest):
                    errors.append(f"{rel}: broken link -> {target}")
                    continue
            else:
                dest = path  # bare #fragment: same file
            if fragment:
                if not dest.endswith(".md") or os.path.isdir(dest):
                    continue  # anchors into non-markdown: not checked
                if fragment not in anchors_of(dest, anchor_cache):
                    errors.append(
                        f"{rel}: missing anchor -> {target}")
    return errors


def run_doctests(rel_paths: Tuple[str, ...]) -> List[str]:
    errors: List[str] = []
    for rel in rel_paths:
        path = os.path.join(REPO, rel)
        if not os.path.exists(path):
            errors.append(f"{rel}: doctest target missing")
            continue
        failures, tried = doctest.testfile(
            path, module_relative=False, verbose=False,
            optionflags=doctest.ELLIPSIS)
        if tried == 0:
            errors.append(f"{rel}: no doctest examples found")
        elif failures:
            errors.append(f"{rel}: {failures}/{tried} doctest "
                          f"examples failed")
        else:
            print(f"  {rel}: {tried} doctest examples OK")
    return errors


def main() -> int:
    paths = markdown_files()
    print(f"link-checking {len(paths)} markdown files...")
    errors = check_links(paths)
    print(f"running doctests over {len(DOCTEST_FILES)} docs...")
    errors += run_doctests(DOCTEST_FILES)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if not errors:
        print("docs OK")
    return min(len(errors), 99)


if __name__ == "__main__":
    sys.exit(main())
