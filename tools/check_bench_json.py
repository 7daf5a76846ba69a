#!/usr/bin/env python3
"""Check that a regenerated BENCH_<experiment>.json matches the committed one.

Usage:
    tools/check_bench_json.py COMMITTED.json REGENERATED.json

Every field must be equal exactly -- same rows in the same order, same
values -- except each row's "wall_seconds", which measures the host, not the
simulation.  Exit status: 0 on a match, 1 on any difference, 2 on usage or
unreadable input.  Stdlib only.
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_json: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for row in doc.get("points", []):
        row.pop("wall_seconds", None)
    return doc


def differences(want, got, path="$"):
    """Yields 'path: want != got' for every leaf where the two differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            yield from differences(want.get(key), got.get(key), f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield f"{path}: {len(want)} entries != {len(got)} entries"
        for i, (w, g) in enumerate(zip(want, got)):
            yield from differences(w, g, f"{path}[{i}]")
    elif want != got or type(want) is not type(got):
        yield f"{path}: {want!r} != {got!r}"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    diffs = list(differences(load(sys.argv[1]), load(sys.argv[2])))
    for line in diffs[:20]:
        print(line)
    verdict = f"differs in {len(diffs)} field(s) from" if diffs else "matches"
    print(f"check_bench_json: {sys.argv[2]} {verdict} {sys.argv[1]}")
    sys.exit(1 if diffs else 0)
