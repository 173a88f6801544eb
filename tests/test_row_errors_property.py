"""Property test: every bad input row is reported, on its physical line, in one error.

For each of the three input CSVs (a project snapshot, the scenario requirement
table, the pipeline trajectory), 1-3 bad rows go into the bundled file at drawn
positions, among drawn blank lines, optionally with a field quoted across two
lines and a UTF-8 byte-order mark. The command must exit 3 without raising or
creating ``--out``, and stderr must name the file, the number of bad rows and
the physical line of each of them, and of no other row. A drawn snapshot
pads its country and region cells with drawn whitespace; without its bad rows
it must load, to records that the checked ``ProjectRecord`` constructor
rebuilds unchanged, whose country and region are the stripped cell text, one
shared str per distinct value.
"""

import codecs
import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2gap import fixtures
from h2gap.cli import main
from h2gap.projects import ProjectRecord, load_snapshot

# Per kind: the command line that reads the file, the bundled file, and its
# bad rows. ``{name}`` is a free-text field, or one the loader ignores, which
# may span two lines; ``{i}`` keeps keys apart. A duplicate key is made by
# copying a bundled row below itself.
KINDS = {
    "snapshot": (["ambition", "--snapshot"], "snap2023.csv", [
        "ZZ-{i},{name},DEU,Europe,Concept,20x5,10,false,",     # non-numeric year
        "ZZ-{i},{name},DEU,Europe,Concept,2025,nan,false,",    # non-finite capacity
        "ZZ-{i},{name},DEU,Europe,Concept,2025,inf,false,",
        "ZZ-{i},{name},DEU,Europe,Concept,2025,10,maybe,",     # bad boolean
        "ZZ-{i},{name},DEU,Europe,Mystery,2025,10,false,",     # unknown status
    ]),
    "requirements": (["ambition", "--scenarios-file"], "scenario_requirements.csv", [
        "ZZ,{name},20x0,100,,false,false",
        "ZZ,{name},2030,nan,,false,false",
        "ZZ,{name},2030,,inf,false,false",
        "ZZ,{name},2030,100,,maybe,false",
    ]),
    "pipeline": (["lcoh", "--pipeline"], "pipeline_additions.csv", [
        "20x{i},5.0,{name}",
        "204{i},lots,{name}",
        "205{i},nan,{name}",                                    # non-finite addition
        "206{i},inf,{name}",
        "207{i},-1,{name}",                                     # negative addition
    ]),
}

# whitespace drawn around a snapshot's country and region cells, so that one
# value is read through several spellings and through its stripped text
PADS = st.sampled_from(["", " ", "\t", " \t "])


def _padded_places(data, row):
    """``row`` with drawn whitespace around its country and region cells."""
    cells = row.split(",")
    for col in (2, 3):
        cells[col] = data.draw(PADS, label="pad") + cells[col] + data.draw(PADS, label="pad")
    return ",".join(cells)


def _corrupted_file(data, kind):
    """Draw a corrupted copy of a bundled file: (bytes, physical lines of its
    bad rows, bytes of the same file without its bad rows)."""
    _, name, bad_rows = KINDS[kind]
    header, *bundled = (Path(fixtures.data_dir()) / name).read_text().splitlines()
    if kind == "snapshot":
        bundled = [_padded_places(data, row) for row in bundled]
    records = [(row, False) for row in bundled]     # (text, is a bad row)
    for i in range(data.draw(st.integers(1, 3), label="bad rows")):
        choice = data.draw(st.integers(0, len(bad_rows)), label="kind of row")
        if choice == len(bad_rows):                 # a duplicate key
            source = bundled[data.draw(st.integers(0, len(bundled) - 1), label="copy")]
            after = records.index((source, False)) + 1
            pos = data.draw(st.integers(after, len(records)), label="position")
            records.insert(pos, (source, True))
            continue
        two_lines = data.draw(st.booleans(), label="field over two lines")
        row = bad_rows[choice].format(i=i, name='"two\nlines"' if two_lines else "bad")
        records.insert(data.draw(st.integers(0, len(records)), label="position"),
                       (row, True))
    for _ in range(data.draw(st.integers(0, 3), label="blank lines")):
        records.insert(data.draw(st.integers(0, len(records)), label="blank"), ("", False))

    text, lines, line = header + "\n", [], 2
    for row, bad in records:
        text += row + "\n"
        line += row.count("\n")         # a record names the line it ends on
        if bad:
            lines.append(line)
        line += 1
    bom = codecs.BOM_UTF8 if data.draw(st.booleans(), label="BOM") else b""
    clean = header + "\n" + "".join(row + "\n" for row, bad in records if not bad)
    return bom + text.encode("utf-8"), lines, bom + clean.encode("utf-8")


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40)
@given(data=st.data())
def test_every_bad_row_is_reported_on_its_line(kind, data):
    argv, name, _ = KINDS[kind]
    content, lines, clean = _corrupted_file(data, kind)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / name, Path(tmp) / "out"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--out", str(out)])
        assert code == 3
        assert not out.exists()
        if kind == "snapshot":
            # without its bad rows the drawn file loads, and each record the
            # loader built is the one the checked constructor builds, with
            # its country and region cells stripped
            path.write_bytes(clean)
            records = load_snapshot(str(path), 2023).records
            assert records
            cells = {row[0]: row for row in csv.reader(
                io.StringIO(clean.decode("utf-8-sig"))) if row}
            for rec in records:
                assert type(rec) is ProjectRecord and ProjectRecord(*rec) == rec
                row = cells[rec.ref_id]
                assert (rec.country, rec.region) == (row[2].strip(), row[3].strip())
            for field in ("country", "region"):
                values = [getattr(rec, field) for rec in records]
                assert len({id(v) for v in values}) == len(set(values))
    err = err.getvalue()
    assert err.startswith(f"error: {path}: {len(lines)} bad row(s)\n")
    assert re.findall(r"^  line (\d+): ", err, re.M) == [str(n) for n in lines]
