"""The design documents name only code that exists.

DESIGN.md, PROTOCOL.md and docs/ARCHITECTURE.md cite private names in
backticks — ``_x`` or ``Class._x`` — to say where a rule lives.  When
code moves, a citation of its old home goes stale silently.  So every
such name must still appear under ``src/``, and a ``Class._x`` must
appear inside the body of a class of that name.
"""

import ast
import pathlib
import re
from collections import defaultdict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
DOCS = ("DESIGN.md", "PROTOCOL.md", "docs/ARCHITECTURE.md")

#: A backticked private name, optionally qualified and called:
#: ``_x``, ``Class._x``, ``obj._x()``.
CITATION = re.compile(r"(?:([A-Za-z]\w*)\.)?(_\w+)(?:\(\))?")


def _citations():
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for line_number, line in enumerate(text.splitlines(), start=1):
            for span in re.findall(r"`([^`]+)`", line):
                match = CITATION.fullmatch(span)
                if match is None:
                    continue
                owner, name = match.groups()
                if name.startswith("__") and name.endswith("__"):
                    continue  # a dunder is Python's, not the project's
                yield f"{doc}:{line_number}", owner, name


def _source_index():
    """Every identifier under ``src/``, and the ones each class body
    names, by class name."""
    anywhere = set()
    by_class = defaultdict(set)
    for path in SRC.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        anywhere |= set(re.findall(r"\b_\w+", source))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                body = ast.get_source_segment(source, node) or ""
                by_class[node.name] |= set(re.findall(r"\b_\w+", body))
    return anywhere, by_class


def test_every_cited_private_name_exists_under_src():
    anywhere, by_class = _source_index()
    cited = list(_citations())
    assert len(cited) >= 30  # the scan still finds what it looks for
    stale = [
        f"{where}: {owner + '.' if owner else ''}{name}"
        for where, owner, name in cited
        if name not in (
            by_class[owner] if owner in by_class else anywhere
        )
    ]
    assert not stale
