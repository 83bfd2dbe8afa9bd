"""The README's library example imports only names the package exports."""

from __future__ import annotations

import re
from pathlib import Path

import cyclevc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_imports_resolve():
    blocks = re.findall(r"from cyclevc import \(([^)]*)\)", README.read_text())
    assert blocks, "README has no 'from cyclevc import (...)' block"
    names = [name.strip() for block in blocks for name in block.split(",") if name.strip()]
    missing = [name for name in names if not hasattr(cyclevc, name)]
    assert not missing, f"README imports names cyclevc does not export: {missing}"
