"""Locate the checkout's own modhash source tree."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_src():
    """Put the checkout's src/ first on sys.path; exit non-zero if it is missing."""
    if not (SRC / "modhash" / "__init__.py").is_file():
        sys.exit(f"perfbench: no modhash sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modhash

    if Path(modhash.__file__).resolve().parent != SRC / "modhash":
        sys.exit(f"perfbench: imported modhash from {modhash.__file__}, not from {SRC}")
