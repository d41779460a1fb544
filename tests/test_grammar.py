"""The sources parse under the oldest Python the package supports.

``pyproject.toml`` declares ``requires-python = ">=3.10"`` and CI lists
3.10, but a suite that runs on a newer interpreter cannot tell when code
uses newer grammar.  ``ast.parse(..., feature_version=(3, 10))`` reads
every source file as 3.10 grammar.  This catches grammar only: a call to a
function, module or argument that 3.10 lacks still passes here, and
``feature_version`` is best effort, so some newer tokens (in f-strings,
for one) may get through.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(REPO)
    for folder in ("src", "tests", "scripts", "benchmarks")
    for path in (REPO / folder).rglob("*.py")
)


def test_every_source_folder_has_python_files():
    assert {path.parts[0] for path in SOURCES} == {"src", "tests", "scripts", "benchmarks"}


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_parses_as_python_3_10(path):
    source = (REPO / path).read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=(3, 10))
