"""Docs name only code that exists.

Every dotted ``repro.`` name in backticks in ``docs/*.md``, README.md
and DESIGN.md must resolve to a module or an attribute of one, so a
rename or a deletion cannot leave a document naming code that is gone.
A name directly followed by ``/`` is a schema tag (``repro.metrics/v1``),
not code.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md", ROOT / "DESIGN.md"]
NAME = re.compile(r"`(repro(?:\.\w+)+)(?![\w/])")


def resolves(name: str) -> bool:
    """Whether ``name`` is a module or a chain of attributes of one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_the_docs_name_code():
    names = {name for doc in DOCS for name in NAME.findall(doc.read_text())}
    assert len(names) > 20


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_every_backticked_repro_name_resolves(doc):
    missing = sorted(
        {name for name in NAME.findall(doc.read_text()) if not resolves(name)}
    )
    assert missing == [], f"{doc.name} names code that does not exist"
