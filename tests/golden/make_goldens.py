"""Rewrite the golden CLI outputs and report how each changed file moved.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_goldens.py

Every command of ``tests/test_golden.py`` is run again and its golden file
rewritten.  For each file whose bytes changed, the largest difference in
units in the last place between corresponding numbers is printed: per
header column that moved for a CSV file of the same header and row lengths
(``iterate_convex.csv: g1 2 ulp, g3 3 ulp``), else for the whole file, where
a changed count of numbers is reported as a changed layout.  The SHA-256 pins
of ``digests.json`` are rewritten too, and each one that changed is printed.
When nothing moved, the one line ``all goldens and digests unchanged`` is.
"""

import json
import re
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import (  # noqa: E402
    COMMANDS, DIGEST_COMMANDS, DIGEST_FILE, GOLDEN_DIR, digest, render)

_NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _ordered(x: float) -> int:
    """Map a double to an integer so that adjacent doubles differ by 1 (and -0.0 == 0.0)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def max_ulp_difference(old: bytes, new: bytes) -> int | None:
    """Largest ulp distance between corresponding numbers, or None if their count differs."""
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(a) != len(b):
        return None
    return max((abs(_ordered(float(x)) - _ordered(float(y))) for x, y in zip(a, b)), default=0)


def column_ulp_differences(old: bytes, new: bytes) -> dict[str, int] | None:
    """Largest ulp distance per header column of two CSV texts, or None if their layout differs."""
    old_rows, new_rows = ([line.split(b",") for line in text.splitlines()] for text in (old, new))
    if old_rows[:1] != new_rows[:1] or list(map(len, old_rows)) != list(map(len, new_rows)):
        return None
    return {name.decode(): max_ulp_difference(b" ".join(r[i] for r in old_rows[1:]),
                                              b" ".join(r[i] for r in new_rows[1:]))
            for i, name in enumerate(old_rows[0])}


def describe_move(name: str, old: bytes, new: bytes) -> str:
    """How a golden moved: the ulps of each CSV column that moved, else the file maximum."""
    columns = column_ulp_differences(old, new) if name.endswith(".csv") else None
    if columns is not None and any(columns.values()):
        return ", ".join(f"{col} {ulps} ulp" for col, ulps in columns.items() if ulps)
    ulps = max_ulp_difference(old, new)
    return "layout changed" if ulps is None else f"max {ulps} ulp"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    moved = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            path = GOLDEN_DIR / name
            old = path.read_bytes() if path.exists() else None
            new = render(name, Path(tmp))
            if old == new:
                continue
            path.write_bytes(new)
            moved = True
            if old is None:
                print(f"{name}: new")
                continue
            print(f"{name}: {describe_move(name, old, new)}")
        old = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
        new = {name: digest(render(name, Path(tmp))) for name in sorted(DIGEST_COMMANDS)}
        if old != new:
            DIGEST_FILE.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
            moved = True
        for name in sorted(new):
            if old.get(name) != new[name]:
                print(f"{DIGEST_FILE.name}: {name} " + ("new" if name not in old else "changed"))
    if not moved:
        print("all goldens and digests unchanged")


if __name__ == "__main__":
    main()
