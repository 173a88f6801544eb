"""Rewrite ``digests.json`` and ``imports.json`` from the current code, or
check the digests.

Run from the repository root after a change that alters report bytes or
imports on purpose, and list what changed::

    PYTHONPATH=src python tests/golden/regen.py

It prints each changed, added and removed command line and import
statement, with the modules each changed statement added and removed.

With ``--check`` it rewrites nothing: it compares the digest of every
command line with ``digests.json``, prints each line that changed and exits
1 if any did. The check imports neither pytest nor the import record's test,
so it runs under any supported Python, with or without test dependencies::

    PYTHONPATH=src python3.13 tests/golden/regen.py --check
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_golden  # noqa: E402


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
    pins = ", ".join(f"{pin} {new[pin]}" for pin in ("python", "machine") if pin in new)
    print(f"{path.name}: {len(entries)} {field} on {pins}")


def check() -> int:
    """Compare every digest with the record; 0 if all match, else 1."""
    recorded = json.loads(test_golden.DIGEST_FILE.read_text())
    machine = test_golden.machine_field()["machine"]
    if recorded["machine"] != machine:
        print(f"{test_golden.DIGEST_FILE.name} was recorded on {recorded['machine']}, "
              f"this run is on {machine}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        current = test_golden.digests(Path(tmp))
    changed = test_golden.changed_lines(recorded["digests"], current)
    for key in changed:
        print(f"changed: {key}")
    version = "%d.%d.%d" % sys.version_info[:3]
    print(f"Python {version} on {machine}: {len(current) - len(changed)} of "
          f"{len(current)} command lines match {test_golden.DIGEST_FILE.name}")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    os.environ.pop("H2GAP_DATA_DIR", None)
    os.environ["COLUMNS"] = test_golden.USAGE_COLUMNS
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: regen.py [--check]", file=sys.stderr)
        return 2
    import test_import_split   # imports pytest, which --check may not have

    with tempfile.TemporaryDirectory() as tmp:
        digests = test_golden.record(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        imports = test_import_split.record(Path(tmp))
    _rewrite(test_golden.DIGEST_FILE, digests, "digests")
    _rewrite(test_import_split.IMPORT_FILE, imports, "imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
