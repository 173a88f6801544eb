"""Unit conventions and the hydrogen production <-> electrolysis capacity conversion.

Conventions used throughout the package:

* capacity        -- GW of *electrical input* of the electrolyser
* energy prices   -- US$(2023) per MWh
* investment      -- US$(2023) per kW(el)
* hydrogen output -- Mt H2 per year, valued at the lower heating value
* money           -- US$(2023), billions for reporting

All currency values are nominal 2023 US$; there is no inflation or
exchange-rate handling anywhere in the package.

This is also the package's one cheap shared leaf: it imports only the stdlib,
so every loader and ``h2gap.cli`` share its constants, boolean parser, CSV reader
and input errors without loading the cost or the project side.
"""

import csv
from contextlib import contextmanager
from functools import reduce
from operator import add

LHV_KWH_PER_KG = 33.33
"""Lower heating value of hydrogen in kWh per kg (as-printed two decimals)."""

HOURS_PER_YEAR = 8760.0
SCENARIO_IDS = ("central", "progressive", "conservative")   # bundled params_<id>.json
DEFAULT_POLICY_MT = 7.0   # implemented demand-side measures, Mt H2 per year by 2030

FIRST_SUBSIDY_YEAR = 2024
"""First year of the cost, gap and subsidy paths; every parameter series
must have an anchor by then."""

LAST_HORIZON_YEAR = 2100
"""Last ``--horizon`` year; the median continuation adds nothing after 2050."""


def fold_sum(values) -> float:
    """The float values added left to right from 0.0: every float total in the
    package. Up to Python 3.11 the built-in ``sum`` adds floats this way; from
    3.12 it compensates rounding, which moves the last bits and so the report
    bytes. With this fold one machine writes the same bytes on every supported
    Python. An empty sequence sums to 0.0."""
    return reduce(add, values, 0.0)


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False, "": False}


def _parse_bool(text: str) -> bool:
    value = _BOOLS.get(text.strip().lower())
    if value is None:
        raise ValueError(f"cannot parse boolean {text!r}")
    return value


class SnapshotSchemaError(ValueError):
    """An input CSV (snapshot, pipeline, requirements) lacks a column or is not UTF-8 CSV."""


class SnapshotDataError(ValueError):
    """Bad rows of an input CSV (snapshot, pipeline, requirements) as (line, message)
    pairs; reads ``<file>: N bad row(s)`` and then ``line L: <message>`` per row."""

    def __init__(self, path, row_errors: list[tuple[int, str]]):
        self.path = str(path)
        self.row_errors = row_errors
        lines = "".join(f"\n  line {ln}: {msg}" for ln, msg in row_errors)
        super().__init__(f"{path}: {len(row_errors)} bad row(s){lines}")


@contextmanager
def read_csv(path, required: tuple[str, ...]):
    """Yield the records of a UTF-8 input CSV (BOM allowed) past its header, blank
    lines skipped and short ones padded to the header's width; a map of each column
    name to its last position; ``bad(message, line=None)``, which records a row error
    on ``line`` or else on the physical line the current record ends on; and
    ``line()``, that physical line. A missing ``required`` column or text that is
    not UTF-8 CSV raises :class:`SnapshotSchemaError`, and the recorded row errors
    raise as one :class:`SnapshotDataError`, in line order, when the block ends."""
    errors: list[tuple[int, str]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            index = {name: i for i, name in enumerate(header)}
            missing = ", ".join(repr(c) for c in required if c not in index)
            if missing:
                raise SnapshotSchemaError(f"{path}: missing column {missing}")
            width = len(header)
            rows = (row if len(row) >= width else row + [""] * (width - len(row))
                    for row in reader if row)

            def bad(message: str, line: int | None = None) -> None:
                errors.append((line or reader.line_num, message))

            yield rows, index, bad, lambda: reader.line_num
        except UnicodeDecodeError as exc:   # its position counts from a read buffer
            raise SnapshotSchemaError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise SnapshotSchemaError(f"{path}:{reader.line_num}: not CSV: {exc}") from None
    if errors:
        raise SnapshotDataError(path, sorted(errors))


def _check_flh_eta(full_load_hours: float, efficiency: float) -> None:
    if not 0.0 < full_load_hours <= HOURS_PER_YEAR:
        raise ValueError(f"full_load_hours must be in (0, 8760], got {full_load_hours}")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")


def production_to_capacity(mass_mt_per_yr: float, full_load_hours: float,
                           efficiency: float) -> float:
    """Electrolyser input capacity (GW) needed for a hydrogen output.

    Parameters
    ----------
    mass_mt_per_yr : hydrogen production in Mt per year (LHV basis)
    full_load_hours : equivalent full-load hours per year, in (0, 8760]
    efficiency : electrolyser efficiency (LHV), in (0, 1]

    Returns
    -------
    Electrical input capacity in GW:
    ``mass * LHV / (full_load_hours * efficiency)``.
    """
    _check_flh_eta(full_load_hours, efficiency)
    if not mass_mt_per_yr >= 0.0:
        raise ValueError(f"mass flow must be non-negative, got {mass_mt_per_yr}")
    # Mt/yr -> 1e9 kg/yr; kWh -> GW via 1e6 kW/GW
    return mass_mt_per_yr * LHV_KWH_PER_KG * 1e3 / (full_load_hours * efficiency)


def capacity_to_production(capacity_gw: float, full_load_hours: float,
                           efficiency: float) -> float:
    """Hydrogen output (Mt/yr, LHV) of an electrolyser input capacity in GW.

    Exact inverse of :func:`production_to_capacity`.
    """
    _check_flh_eta(full_load_hours, efficiency)
    if not capacity_gw >= 0.0:
        raise ValueError(f"capacity must be non-negative, got {capacity_gw}")
    return capacity_gw * full_load_hours * efficiency / (LHV_KWH_PER_KG * 1e3)
