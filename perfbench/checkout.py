"""Locate the otcms source of the checkout the benchmark sits in.

The benchmark measures the code next to it, never an installed copy: it
puts ``<checkout>/src`` first on ``sys.path`` and refuses to run when that
tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import ``otcms`` from ``<checkout>/src``; exit non-zero when it is absent."""
    if not (SRC / "otcms" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no otcms source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import otcms

    if not Path(otcms.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: otcms imported from {otcms.__file__}, not from {SRC}")
