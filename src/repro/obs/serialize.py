"""Stable JSON serialization for metrics reports.

The CI regression gate compares a freshly collected report against a
committed baseline, so serialization must be *stable*: the same
measurements always produce byte-identical text.  That means sorted
keys, a fixed indent, rounded floats (so incidental representation
noise can never leak into a diff) and a trailing newline (committed
files end in one).
"""

from __future__ import annotations

import json
import sys
from typing import Any

#: float precision of serialized reports; ratios and percentages are
#: meaningful to far fewer digits than this.
FLOAT_DIGITS = 6


def round_floats(obj: Any, digits: int = FLOAT_DIGITS) -> Any:
    """Recursively round every float in a JSON-ish structure."""
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return obj


def stable_dumps(payload: Any) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, rounded
    floats, trailing newline."""
    return json.dumps(round_floats(payload), indent=2,
                      sort_keys=True) + "\n"


def load_json(path: str) -> Any:
    """Load a JSON report from ``path`` (``-`` reads stdin)."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
