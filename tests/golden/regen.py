"""Rewrite ``digests.json`` and ``imports.json`` from the current code.

Run from the repository root after a change that alters report bytes or
imports on purpose, and list what changed::

    PYTHONPATH=src python tests/golden/regen.py

It prints each changed, added and removed command line and import
statement, with the modules each changed statement added and removed.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_golden  # noqa: E402
import test_import_split  # noqa: E402


def _rewrite(path: Path, new: dict, field: str) -> None:
    """Write ``new`` to ``path`` and print how its ``field`` entries changed."""
    old = json.loads(path.read_text())[field] if path.exists() else {}
    path.write_text(json.dumps(new, indent=1) + "\n")
    entries = new[field]
    for key, value in entries.items():
        if key not in old:
            print(f"added: {key}")
        elif old[key] != value:
            line = f"changed: {key}"
            if isinstance(value, list):     # an import set: name the modules
                line += (f": added {sorted(set(value) - set(old[key]))}, "
                         f"removed {sorted(set(old[key]) - set(value))}")
            print(line)
    for key in old:
        if key not in entries:
            print(f"removed: {key}")
    print(f"{path.name}: {len(entries)} {field} on Python {new['python']}, {new['machine']}")


def main() -> int:
    os.environ.pop("H2GAP_DATA_DIR", None)
    os.environ["COLUMNS"] = test_golden.USAGE_COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        digests = test_golden.record(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        imports = test_import_split.record(Path(tmp))
    _rewrite(test_golden.DIGEST_FILE, digests, "digests")
    _rewrite(test_import_split.IMPORT_FILE, imports, "imports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
