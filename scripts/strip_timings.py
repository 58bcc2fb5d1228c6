#!/usr/bin/env python3
"""Drop the wall-time fields from `cgnp reproduce --out` rows.

Reads the rows (a JSON array) on stdin and writes them without
`train_seconds` and `test_seconds`, one row per line, to stdout. What is
left is a pure function of the code, the scale and the seed, so it can
be compared byte for byte across runs, thread counts and commits:

    cgnp reproduce --exp all --scale smoke --out /tmp/r.json
    python3 scripts/strip_timings.py < /tmp/r.json | cmp - RESULTS.smoke.json
"""

import json
import sys

rows = json.load(sys.stdin)
for row in rows:
    del row["train_seconds"], row["test_seconds"]
print("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]")
