#!/usr/bin/env python
"""Transformation-library lint for CI: every transformation must be a
well-formed rewrite pattern.

Checks, over :func:`repro.transforms.default_library` and every bench
circuit (the pattern API itself — ``match``/``match_at`` + ``apply`` —
is enforced by :class:`~repro.transforms.TransformLibrary`, which
rejects any other transformation when the library is built):

1. **Footprints** — every enumerated match names at least one concrete
   node, and every named node exists in the graph (hot-block focus and
   the macro chains read the footprint, so one that has leaked out of
   the behavior points them at nothing).
2. **Picklability** — matches must survive a pickle round trip (they
   cross process boundaries with checkpointed populations).

Run:  PYTHONPATH=src python tools/check_transforms.py
Exit status is the number of failing checks (0 = everything passes).
"""

from __future__ import annotations

import os
import pickle
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.circuits import CIRCUITS, circuit            # noqa: E402
from repro.rewrite import AnalysisManager                      # noqa: E402
from repro.transforms import default_library                  # noqa: E402


def check_library() -> int:
    errors = 0
    library = default_library()
    for name in sorted(CIRCUITS):
        behavior = circuit(name).behavior()
        nodes = set(behavior.graph.nodes)
        analyses = AnalysisManager(behavior)
        count = 0
        for t in library.transformations:
            for match in t.match(behavior, analyses):
                count += 1
                where = f"{name}: {t.name}: {match.description!r}"
                if not match.footprint:
                    print(f"FAIL: {where}: empty footprint",
                          file=sys.stderr)
                    errors += 1
                stray = set(match.footprint) - nodes
                if stray:
                    print(f"FAIL: {where}: footprint names absent "
                          f"nodes {sorted(stray)}", file=sys.stderr)
                    errors += 1
                clone = pickle.loads(pickle.dumps(match))
                if clone.fingerprint != match.fingerprint:
                    print(f"FAIL: {where}: fingerprint not stable "
                          f"across pickling", file=sys.stderr)
                    errors += 1
        print(f"  {name}: {count} matches OK")
    return errors


def main() -> int:
    errors = check_library()
    if not errors:
        print("transform library OK")
    return min(errors, 99)


if __name__ == "__main__":
    sys.exit(main())
