"""Documentation link checker for the CI docs job.

Verifies, with no dependencies beyond the standard library, that:

1. ``README.md`` exists and every page in ``docs/`` is reachable from it by
   following relative markdown links (the repo's navigability contract);
2. every relative markdown link and image in ``README.md`` and ``docs/*.md``
   resolves to an existing file (anchors are stripped; external ``http(s)``
   and ``mailto`` links are not fetched);
3. every `path`-like inline-code reference to a tracked top-level artifact
   (``docs/…``, ``benchmarks/…``, ``tools/…``, ``examples/…``, ``src/…``,
   ``tests/…``) in those pages points at something that exists — stale file
   references are doc drift;
4. every inline-code ``Class.attr`` reference whose ``Class`` is defined
   under ``src/`` names an attribute that class (or one of its base classes
   defined under ``src/``, resolved by name) defines: a method, a class
   attribute, or an instance attribute assigned as ``self.attr`` — stale API
   references are doc drift too.  A class with a base from outside ``src/``
   is checked only when that base is a builtin.

Exit status is non-zero on any failure, so CI can gate on it.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
README = REPO_ROOT / "README.md"

#: Inline markdown links/images: [text](target) — fenced code is stripped first.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Inline-code path references like `docs/kvcache.md` or `tools/check_docs.py`.
CODE_PATH_RE = re.compile(
    r"`((?:docs|benchmarks|tools|examples|src|tests)/[A-Za-z0-9_./-]+)`"
)
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
#: Inline-code spans, and ``Class.attr`` references inside one.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
CLASS_ATTR_RE = re.compile(r"(?<!\w)([A-Z]\w*)\.([A-Za-z_]\w*)")

#: Class name -> (base class names, attribute names), merged over every
#: class of that name defined under ``src/``.
ClassIndex = dict[str, tuple[set[str], set[str]]]


def _strip_code(text: str) -> str:
    """Remove fenced code blocks (shell snippets are full of fake 'links')."""
    return FENCE_RE.sub("", text)


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


def _name(node: ast.expr) -> str:
    """The trailing name of a base-class expression (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Subscript):  # Generic[T], Protocol[T]
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _targets(node: ast.expr) -> list[str]:
    """Names bound by an assignment target in a class body."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _targets(elt)]
    return []


def index_classes(src: Path) -> ClassIndex:
    """Index every class defined under ``src`` by name."""
    classes: ClassIndex = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            bases, attrs = classes.setdefault(node.name, (set(), set()))
            bases.update(_name(base) for base in node.bases)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    attrs.add(item.name)
                elif isinstance(item, ast.Assign):
                    attrs.update(n for t in item.targets for n in _targets(t))
                elif isinstance(item, ast.AnnAssign):
                    attrs.update(_targets(item.target))
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    attrs.add(sub.attr)
    return classes


def has_attr(classes: ClassIndex, name: str, attr: str, seen: frozenset = frozenset()) -> bool:
    """Whether class ``name`` (or a base) defines ``attr``; unknown bases
    from outside ``src/`` that are not builtins count as defining it."""
    bases, attrs = classes[name]
    if attr in attrs:
        return True
    for base in bases - seen - {name}:
        if base in classes:
            found = has_attr(classes, base, attr, seen | {name})
        elif hasattr(builtins, base):
            found = hasattr(getattr(builtins, base), attr)
        else:
            found = True  # e.g. Protocol or Enum: its attributes are unknown here
        if found:
            return True
    return False


def check_file(path: Path, classes: ClassIndex) -> tuple[list[Path], list[str]]:
    """Return ``(linked_markdown_files, errors)`` for one markdown page."""
    text = _strip_code(path.read_text())
    errors: list[str] = []
    linked: list[Path] = []
    for match in LINK_RE.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or _is_external(match.group(1)):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
        elif resolved.suffix == ".md":
            linked.append(resolved)
    for match in CODE_PATH_RE.finditer(text):
        target = (REPO_ROOT / match.group(1)).resolve()
        if not target.exists():
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: stale path reference -> {match.group(1)}"
            )
    for span in CODE_SPAN_RE.finditer(text):
        for name, attr in CLASS_ATTR_RE.findall(span.group(1)):
            if name in classes and not has_attr(classes, name, attr):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: stale API reference -> {name}.{attr}"
                )
    return linked, errors


def main() -> int:
    """Walk the link graph from README.md and report every problem found."""
    errors: list[str] = []
    if not README.exists():
        print("FAILED: README.md does not exist")
        return 1

    classes = index_classes(REPO_ROOT / "src")
    # Walk the link graph from README.md.
    reachable: set[Path] = set()
    queue = [README.resolve()]
    while queue:
        page = queue.pop()
        if page in reachable:
            continue
        reachable.add(page)
        linked, page_errors = check_file(page, classes)
        errors.extend(page_errors)
        queue.extend(linked)

    for doc in sorted(DOCS_DIR.glob("*.md")):
        if doc.resolve() not in reachable:
            errors.append(f"docs/{doc.name}: not reachable from README.md")

    checked = sorted(str(p.relative_to(REPO_ROOT)) for p in reachable)
    print(f"checked {len(checked)} pages: {', '.join(checked)}")
    if errors:
        print(f"\nFAILED — {len(errors)} problem(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print("OK — README reaches every docs page, no link is dead, no API reference is stale")
    return 0


if __name__ == "__main__":
    sys.exit(main())
