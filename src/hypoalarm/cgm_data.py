"""CGM record files: parsing, validation, unit conversion, config constants.

The on-disk format is a five-column CSV (``Sample#,Date,Time,Meal,SensorBG``)
with ``D.Mon.YY`` dates, ``H:MM`` 24-hour times, ``.`` in the Meal column for
"no meal here" or a numeric reference BG marking a meal, and ``N/A`` for a
missing sensor reading. All glucose values are mmol/L once parsed.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime, time, timedelta
from itertools import chain, compress, repeat

import numpy as np

from .cart import CostMatrix

#: mg/dL per mmol/L (glucose molar mass 180.16 g/mol).
MG_PER_DL_PER_MMOL_L = 18.016

HYPO_THRESHOLD = 3.9    # mmol/L, boundary inclusive
SEVERE_THRESHOLD = 2.8  # mmol/L

BG_MAX = 40.0  # mmol/L; readings outside (0, 40] are rejected

CSV_COLUMNS = ("Sample#", "Date", "Time", "Meal", "SensorBG")
DM_TYPES = ("type1", "type2", "other")

_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

SAMPLING_PERIOD_MIN = 5  # minutes between CGM readings

# every valid time cell, H:MM or HH:MM, to its minute of the day
_DAY_MINUTES = {f"{hour:{width}}:{minute:02d}": 60 * hour + minute
                for hour in range(24) for minute in range(60) for width in ("", "02")}
# the time cell `series_to_csv` writes for each minute of the day
_TIME_CELLS = tuple(f"{minute // 60}:{minute % 60:02d}" for minute in range(1440))

# the characters `str.strip` removes, other than the LF that ends a row:
# the ASCII ones, and a pattern for any text
_ASCII_INNER_SPACE = " \t\v\f\x1c\x1d\x1e\x1f"
_INNER_SPACE = re.compile(r"[^\S\n]")

EPOCH = datetime(2000, 1, 1)  # every time in the pipeline is minutes since this instant


class DataValidationError(ValueError):
    """An input file violates the ingestion contract."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")


@dataclass(frozen=True, eq=False)
class PatientSeries:
    """One patient's ordered 5-min CGM trace; immutable once built.

    `samples` is a read-only ``(n, 3)`` float64 array with one row per
    reading: minutes since `EPOCH`, sensor BG and meal reference BG
    (mmol/L). NaN marks a missing sensor reading and a row without a meal.
    """

    patient_id: str
    samples: np.ndarray
    dm_type: str = "other"

    def __post_init__(self):
        # column-major, so each column is a contiguous view for searchsorted
        samples = np.array(self.samples, dtype=np.float64, order="F")
        if samples.size == 0:
            samples = samples.reshape(0, 3)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError(f"samples must be an (n, 3) array, got shape {samples.shape}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.dm_type not in DM_TYPES:
            raise ValueError(f"dm_type must be one of {DM_TYPES}, got {self.dm_type!r}")
        minutes, readings = samples[:, 0], samples[:, 1:]
        if not (np.isfinite(minutes).all() and (np.diff(minutes) > 0).all()):
            raise ValueError("sample times must be finite and strictly increasing")
        bad = np.flatnonzero(((readings <= 0.0) | (readings > BG_MAX)).any(axis=1))  # NaN passes
        if len(bad):
            raise ValueError(f"BG out of range (0, {BG_MAX}] at sample {bad[0]}")

    def __eq__(self, other):
        return (isinstance(other, PatientSeries) and self.patient_id == other.patient_id
                and self.dm_type == other.dm_type
                and np.array_equal(self.samples, other.samples, equal_nan=True))

    @property
    def minutes(self) -> np.ndarray:
        """Sample times in minutes since `EPOCH`."""
        return self.samples[:, 0]

    @property
    def bg(self) -> np.ndarray:
        """Sensor BG per sample, NaN where the reading is missing."""
        return self.samples[:, 1]

    @property
    def meal_ref(self) -> np.ndarray:
        """Reference BG marking a meal, NaN on rows without one."""
        return self.samples[:, 2]

    @property
    def meal_times(self) -> np.ndarray:
        """Times of the rows that mark a meal, in minutes since `EPOCH`."""
        return self.minutes[~np.isnan(self.meal_ref)]

    @property
    def missing_count(self) -> int:
        return int(np.isnan(self.bg).sum())


@dataclass(frozen=True)
class PipelineConfig:
    """Fixed pipeline constants; everything downstream reads them from here.

    Decisions happen on a 15-min grid from 2 h to 3 h 30 m after a meal, the
    end of its peak window, each asking whether a reading 15 (the lead time),
    20 or 25 min ahead will be at or under the alarm threshold.
    """

    hypo_threshold: float = HYPO_THRESHOLD
    horizon_offsets_min: tuple[int, ...] = (15, 20, 25)
    decision_offsets_min: tuple[int, ...] = (120, 135, 150, 165, 180, 195, 210)
    daytime_start: time = time(7, 0)
    daytime_end: time = time(23, 0)
    snap_tolerance_min: float = 2.5
    costs: CostMatrix = CostMatrix()
    prune_depth: int = 3
    folds: int = 5
    allocations: int = 4

    def __post_init__(self):
        offs = self.horizon_offsets_min
        if not offs or list(offs) != sorted(set(offs)):
            raise ValueError("horizon offsets must increase strictly")
        dec = self.decision_offsets_min
        if not dec or any(b - a != 15 for a, b in zip(dec, dec[1:])):
            raise ValueError("decision grid must be non-empty and step by 15 minutes")
        if self.snap_tolerance_min < 0:
            raise ValueError("snap tolerance must be >= 0")
        if self.prune_depth < 1 or self.folds < 2 or self.allocations < 1:
            raise ValueError("prune_depth >= 1, folds >= 2, allocations >= 1 required")

    @property
    def lead_time_min(self) -> int:
        return self.horizon_offsets_min[0]

    @property
    def peak_window_min(self) -> int:
        return self.decision_offsets_min[0]


def label_hypoglycemia(bg, threshold: float = HYPO_THRESHOLD):
    """1 where BG is at or under the threshold, 0 above; elementwise over
    a scalar or an array."""
    return (np.asarray(bg) <= threshold) * 1


def _is_digits(cell: str, widths=range(1, 3)) -> bool:
    """True when `cell` is plain ASCII digits, as many as one of `widths`."""
    return len(cell) in widths and cell.isascii() and cell.isdigit()


def _day_start(date_cell: str) -> float:
    """First minute of a ``D.Mon.YY`` date cell since `EPOCH`, NaN when
    the cell is malformed."""
    try:
        day_s, month_s, year_s = date_cell.split(".")
        if _is_digits(day_s) and _is_digits(year_s, (2,)):
            day = datetime(2000 + int(year_s), _MONTH_NAMES.index(month_s) + 1, int(day_s))
            return (day - EPOCH).days * 1440
    except ValueError:
        pass
    return math.nan


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _bg_column(cells: list, missing_cell: str, unit: str) -> tuple[np.ndarray, np.ndarray]:
    """mmol/L values of one BG column, NaN where the cell is `missing_cell`,
    and the mask of cells that are neither missing nor a number in (0, BG_MAX]."""
    cells = np.array(cells, dtype=object)
    present = cells != missing_cell
    raw = np.full(len(cells), math.nan)
    try:
        raw[present] = np.fromiter(map(float, cells[present].tolist()), float)
    except ValueError:  # rescan this column only; a cell that is no number becomes NaN
        raw[present] = np.fromiter(map(_float_or_nan, cells[present].tolist()), float)
    value = raw if unit == "mmol" else raw / MG_PER_DL_PER_MMOL_L
    bad = present & ~((raw > 0) & (value <= BG_MAX))  # NaN fails both, inf the second
    return value, bad


def csv_rows(text: str) -> list[list[str]]:
    """The `csv.reader` rows of `text`, any of CRLF, CR and LF ending a row; a
    row it refuses (a cell over its field size limit) is a data error."""
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataValidationError(str(exc), row=len(rows) + 1) from None
    return rows


def _split_cells(text: str) -> tuple[list, list, np.ndarray, bool]:
    """Header cells, body cells in row order, each body row's cell count,
    and whether a cell may need stripping.

    A row ends at CRLF, CR or LF, as for `csv.reader`, which splits only
    text holding a quote, where a cell may span commas and line ends.
    """
    if '"' in text:
        rows = csv_rows(text)
        body = rows[1:]
        widths = np.fromiter(map(len, body), np.intp, len(body))
        return (rows[0] if rows else []), list(chain.from_iterable(body)), widths, True
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header, *body = text.split("\n")  # not str.splitlines, which also splits at \v, \x85, ...
    widths = np.fromiter(map(str.count, body, repeat(",")), np.intp, len(body)) + 1
    cells = ",".join(body).split(",") if body else []
    padded = (any(c in text for c in _ASCII_INNER_SPACE) if text.isascii()
              else _INNER_SPACE.search(text) is not None)
    return header.split(","), cells, widths, padded


def parse_cgm_file(text: str, patient_id: str = "unknown", dm_type: str = "other",
                   unit: str = "mmol") -> PatientSeries:
    """Parse the text of one patient's CSV export into a validated PatientSeries.

    Malformed rows are rejected with their 1-based line number; `unit="mg"`
    converts both BG columns from mg/dL on the way in. Cells may be CSV-quoted.
    """
    if unit not in ("mmol", "mg"):
        raise ValueError(f"unknown unit {unit!r}, expected 'mmol' or 'mg'")

    header, cells, widths, padded = _split_cells(text)
    if tuple(map(str.strip, header)) != CSV_COLUMNS:
        raise DataValidationError(
            f"expected header {','.join(CSV_COLUMNS)!r}", row=1)
    if padded:
        cells = list(map(str.strip, cells))
    lines = np.arange(2, len(widths) + 2)
    if "" in cells or not widths.all():  # drop rows whose cells are all blank
        filled = np.concatenate(([0], np.cumsum(np.array(cells, dtype=object).astype(bool))))
        ends = np.cumsum(widths)
        keep = filled[ends] > filled[ends - widths]
        cells = list(compress(cells, np.repeat(keep, widths)))
        widths, lines = widths[keep], lines[keep]
    short = np.flatnonzero(widths != 5)
    if len(short):  # rows before the first misshapen one are checked first
        cells = cells[:5 * short[0]]

    sample_col, date_col, time_col, meal_col, bg_col = (cells[i::5] for i in range(5))
    n = len(sample_col)
    digits = "".join(sample_col)
    bad_sample = np.zeros(n, bool)
    if "" in sample_col or not (digits.isascii() and digits.isdigit()):
        bad_sample = ~(np.fromiter(map(str.isascii, sample_col), bool, n)
                       & np.fromiter(map(str.isdigit, sample_col), bool, n))
    day_starts = {cell: _day_start(cell) for cell in set(date_col)}
    minute = (np.fromiter(map(day_starts.__getitem__, date_col), float, n)
              + np.fromiter(map(_DAY_MINUTES.get, time_col, repeat(math.nan)), float, n))
    bad_order = np.zeros(n, bool)
    bad_order[1:] = ~(np.diff(minute) > 0)
    meal_ref, bad_meal = _bg_column(meal_col, ".", unit)
    bg, bad_bg = _bg_column(bg_col, "N/A", unit)

    checks = (bad_sample, np.isnan(minute), bad_order, bad_meal, bad_bg)  # row parser order
    failed = np.logical_or.reduce(checks)
    if failed.any():
        i = int(np.argmax(failed))
        check = next(k for k, mask in enumerate(checks) if mask[i])
        message = (f"Sample# is not a non-negative integer: {sample_col[i]!r}",
                   f"malformed timestamp {date_col[i]!r} {time_col[i]!r}",
                   f"timestamps not strictly increasing at {date_col[i]} {time_col[i]}",
                   f"Meal must be a number in (0, {BG_MAX}] mmol/L, got {meal_col[i]!r}",
                   f"SensorBG must be a number in (0, {BG_MAX}] mmol/L, got {bg_col[i]!r}")
        raise DataValidationError(message[check], row=int(lines[i]))
    if len(short):
        k = short[0]
        raise DataValidationError(f"expected 5 columns, got {widths[k]}", row=int(lines[k]))
    return PatientSeries(patient_id=patient_id, samples=np.column_stack((minute, bg, meal_ref)),
                         dm_type=dm_type)


def _value_cells(column: np.ndarray, missing_cell: str) -> list:
    """`repr` of each value of `column`, `missing_cell` where it is NaN."""
    present = ~np.isnan(column)
    cells = np.full(len(column), missing_cell, dtype=object)
    cells[present] = np.array(list(map(repr, column[present].tolist())), dtype=object)
    return cells.tolist()


def _date_cell(day: int) -> str:
    d = EPOCH + timedelta(days=day)
    return f"{d.day}.{_MONTH_NAMES[d.month - 1]}.{d.year % 100:02d}"


def series_to_csv(series: PatientSeries) -> str:
    """Render the ingestion CSV format; inverse of `parse_cgm_file`."""
    minutes, bg, meal_ref = series.samples.T
    day, minute_of_day = np.divmod(np.trunc(minutes), 1440)  # int() truncates, divmod floors
    days = day.tolist()
    date_cells = {d: _date_cell(int(d)) for d in set(days)}  # OverflowError past year 9999
    rows = map(",".join, zip(map(str, range(len(days))), map(date_cells.__getitem__, days),
                             map(_TIME_CELLS.__getitem__, minute_of_day.astype(np.intp).tolist()),
                             _value_cells(meal_ref, "."), _value_cells(bg, "N/A")))
    return "\n".join((",".join(CSV_COLUMNS), *rows)) + "\n"
