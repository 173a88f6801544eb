"""Rewrite ``digests.json`` from the current code.

Run from the repository root after a change that alters report bytes on
purpose, and list the command lines whose digest changed::

    PYTHONPATH=src python tests/golden/regen.py

It prints each changed, added and removed command line.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import DIGEST_FILE, USAGE_COLUMNS, record  # noqa: E402


def main() -> int:
    os.environ.pop("H2GAP_DATA_DIR", None)
    os.environ["COLUMNS"] = USAGE_COLUMNS
    old = json.loads(DIGEST_FILE.read_text())["digests"] if DIGEST_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = record(Path(tmp))
    DIGEST_FILE.write_text(json.dumps(new, indent=1) + "\n")
    digests = new["digests"]
    for key in digests:
        if key not in old:
            print(f"added: {key}")
        elif old[key] != digests[key]:
            print(f"changed: {key}")
    for key in old:
        if key not in digests:
            print(f"removed: {key}")
    print(f"{len(digests)} command lines on Python {new['python']}, {new['machine']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
