"""The sources parse under the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_requires_python():
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor and int(floor.group(1)) == 10
    sources = [*ROOT.glob("src/fivevertex/*.py"), *ROOT.glob("tests/*.py"),
               *ROOT.glob("demos/*.py")]
    assert len(sources) > 30
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor.group(1))))
