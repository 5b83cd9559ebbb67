"""CGM record files: parsing, validation, unit conversion, CSV rules, pipeline constants.

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
from itertools import chain, compress, groupby, repeat
from typing import ClassVar

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

# the H:MM clock of each minute of the day, as a record's Time cell holds it
_TIME_CELLS = tuple(f"{minute // 60}:{minute % 60:02d}" for minute in range(1440))
# the HH:MM clock of each minute of the day, as a feature table's time cell ends
_CLOCK_CELLS = tuple(cell.zfill(5) for cell in _TIME_CELLS)
# every valid clock cell, H:MM or HH:MM, to its minute of the day
_DAY_MINUTES = {cell: minute for cells in (_TIME_CELLS, _CLOCK_CELLS)
                for minute, cell in enumerate(cells)}

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
    """The paper's pipeline constants; everything downstream reads them from here.

    Decisions happen on a 15-min grid from 2 h to 3 h 30 m after a meal, the
    end of its peak window, each asking whether a reading 15 (the lead time),
    20 or 25 min ahead will be at or under the alarm threshold. Only the
    cross-validation plan, `folds` and `allocations`, can be set; the rest
    are class constants, also readable from an instance.
    """

    hypo_threshold: ClassVar[float] = HYPO_THRESHOLD
    horizon_offsets_min: ClassVar[tuple[int, ...]] = (15, 20, 25)
    decision_offsets_min: ClassVar[tuple[int, ...]] = (120, 135, 150, 165, 180, 195, 210)
    lead_time_min: ClassVar[int] = horizon_offsets_min[0]
    peak_window_min: ClassVar[int] = decision_offsets_min[0]
    daytime_start: ClassVar[time] = time(7, 0)
    daytime_end: ClassVar[time] = time(23, 0)
    snap_tolerance_min: ClassVar[float] = 2.5
    costs: ClassVar[CostMatrix] = CostMatrix()
    prune_depth: ClassVar[int] = 3
    folds: int = 5
    allocations: int = 4

    def __post_init__(self):
        if self.folds < 2 or self.allocations < 1:
            raise ValueError("folds >= 2 and allocations >= 1 required")


def label_hypoglycemia(bg):
    """1 where BG is at or under `HYPO_THRESHOLD`, 0 above; elementwise over
    a scalar or an array."""
    return (np.asarray(bg) <= HYPO_THRESHOLD) * 1


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


def csv_table(columns, rows) -> str:
    """CSV text of a header and rows (sequences of string cells): minimal
    quoting, LF line endings, and every cell of a row that holds a CR quoted.

    A table with nothing to quote is joined directly: no cell holding a
    comma, quote, CR, LF or NUL, and no row empty or a single empty cell
    (which `csv.writer` writes as ``""``). Any other goes through
    `csv.writer`, a row with a CR in a cell through a `QUOTE_ALL` one. A
    cell that is no `str` raises TypeError.
    """
    rows = [columns, *rows]
    lines = list(map(",".join, rows))
    text = "\n".join(lines)
    if ("" not in lines and not any(c in text for c in '"\r\0')
            and text.count("\n") == len(rows) - 1
            and text.count(",") == sum(map(len, rows)) - len(rows)):
        return text + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(columns)
    for row in rows[1:]:
        # the minimal writer leaves a "\r" unquoted, where a reader would end the row
        (quote_all if "\r" in "".join(row) else writer).writerow(row)
    return buf.getvalue()


def _split_cells(text: str) -> tuple[list, list, np.ndarray, bool, bool]:
    """Header cells, body cells in row order, each body row's cell count,
    whether a cell may need stripping, and whether one may be blank once
    stripped.

    A row ends at CRLF, CR or LF, as for `csv.reader`. Text that `csv.reader`
    reads otherwise than a plain split is read by it: text holding a quote,
    where a cell may span commas and line ends, a NUL, or a cell over its
    field size limit; a row it refuses is a data error.
    """
    if '"' not in text and "\0" not in text:
        lines = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
        if not lines.endswith("\n"):
            lines += "\n"
        data = np.frombuffer(lines.encode("utf-8", "surrogatepass"), np.uint8)
        ends = np.flatnonzero((data == 10) | (data == 44))  # each cell's closing "\n" or ","
        spans = np.diff(ends, prepend=-1)  # UTF-8 bytes + 1 per cell, >= its characters + 1
        if (spans <= csv.field_size_limit() + 1).all():
            widths, empty = np.diff(np.flatnonzero(data[ends] == 10), prepend=-1), 1 in spans
            del data, ends, spans  # freed before the cells are built
            header, _, body = lines.partition("\n")
            cells = body.replace("\n", ",").split(",")
            cells.pop()  # the empty cell after the last row's "\n"
            padded = (any(c in lines for c in _ASCII_INNER_SPACE) if lines.isascii()
                      else _INNER_SPACE.search(lines) is not None)
            return header.split(","), cells, widths[1:], padded, padded or empty
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataValidationError(str(exc), row=len(rows) + 1) from None
    body = rows[1:]
    widths = np.fromiter(map(len, body), np.intp, len(body))
    return (rows[0] if rows else []), list(chain.from_iterable(body)), widths, True, True


def csv_cells(text: str, columns: tuple[str, ...],
              strip: bool = False) -> tuple[list, np.ndarray, DataValidationError | None]:
    """The body of a CSV table headed `columns`, read up to the first row of
    another width, rows whose cells are all blank skipped; a header that is
    not `columns` once stripped is a data error on row 1.

    Returns the cells of the rows read, in row order and stripped if
    `strip`; the 1-based line number of each row read; and the first
    misshapen row's error, None when there is none, for the caller to raise
    once the rows before it pass.
    """
    header, cells, widths, padded, blank = _split_cells(text)
    if tuple(map(str.strip, header)) != columns:
        raise DataValidationError(f"expected header {','.join(columns)!r}", row=1)
    stripped = list(map(str.strip, cells)) if padded else cells
    if strip:
        cells = stripped
    lines = np.arange(2, len(widths) + 2)
    if blank and ("" in stripped or not widths.all()):  # drop rows whose cells are all blank
        filled = np.concatenate(([0], np.cumsum(np.array(stripped, dtype=object).astype(bool))))
        ends = np.cumsum(widths)
        keep = filled[ends] > filled[ends - widths]
        cells = list(compress(cells, np.repeat(keep, widths)))
        widths, lines = widths[keep], lines[keep]
    width = len(columns)
    short = np.flatnonzero(widths != width)
    if not len(short):
        return cells, lines, None
    k = short[0]
    return cells[:width * k], lines[:k], DataValidationError(
        f"expected {width} columns, got {widths[k]}", row=int(lines[k]))


def parse_cgm_file(text: str, patient_id: str = "unknown", dm_type: str = "other",
                   unit: str = "mmol") -> PatientSeries:
    """Parse the text of one patient's CSV export into a validated PatientSeries.

    Malformed rows are rejected with their 1-based line number; `unit="mg"`
    converts both BG columns from mg/dL on the way in. Cells may be CSV-quoted.
    The rows before the first misshapen one are checked first.
    """
    if unit not in ("mmol", "mg"):
        raise ValueError(f"unknown unit {unit!r}, expected 'mmol' or 'mg'")

    cells, lines, misshapen = csv_cells(text, CSV_COLUMNS, strip=True)
    sample_col, date_col, time_col, meal_col, bg_col = (cells[i::5] for i in range(5))
    n = len(sample_col)
    digits = "".join(sample_col)
    bad_sample = np.zeros(n, bool)
    if "" in sample_col or not (digits.isascii() and digits.isdigit()):
        bad_sample = ~(np.fromiter(map(str.isascii, sample_col), bool, n)
                       & np.fromiter(map(str.isdigit, sample_col), bool, n))
    runs = [(cell, len(list(run))) for cell, run in groupby(date_col)]  # a run per day
    minute = (np.repeat([_day_start(cell) for cell, _ in runs], [k for _, k in runs])
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
    if misshapen:
        raise misshapen
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


def _time_cells(minutes: np.ndarray, years: range, name,
                date_cell) -> tuple[list[str], list[int]]:
    """Each time's date cell, from `date_cell` once per distinct day since
    `EPOCH`, and minute of the day, in row-major order. The first time outside
    `years` (as NaN and ±inf are) or not on a whole minute raises ValueError,
    named by `name` of its row-major index."""
    minutes = minutes.ravel()
    first = 1440 * (datetime(years[0], 1, 1) - EPOCH).days
    stop = 1440 * ((datetime(years[-1], 12, 31) - EPOCH).days + 1)
    inside = (minutes >= first) & (minutes < stop)  # NaN fails both
    if (bad := np.flatnonzero(~inside | (np.floor(minutes) != minutes))).size:
        i = int(bad[0])
        raise ValueError(f"{name(i)} at minute {minutes.item(i)!r} is " + (
            "not a whole minute" if inside[i] else f"outside the years {years[0]}-{years[-1]}"))
    day, minute_of_day = np.divmod(minutes.astype(np.int64), 1440)
    days = day.tolist()
    date_cells = {d: date_cell(d) for d in set(days)}
    return list(map(date_cells.__getitem__, days)), minute_of_day.tolist()


def series_to_csv(series: PatientSeries) -> str:
    """Render the ingestion CSV format; inverse of `parse_cgm_file`. A
    D.Mon.YY date holds only 2000-2099, and an H:MM cell whole minutes."""
    minutes, bg, meal_ref = series.samples.T
    dates, clock = _time_cells(minutes, range(2000, 2100), "sample {}".format, _date_cell)
    rows = map(",".join, zip(map(str, range(len(dates))), dates,
                             map(_TIME_CELLS.__getitem__, clock),
                             _value_cells(meal_ref, "."), _value_cells(bg, "N/A")))
    return "\n".join((",".join(CSV_COLUMNS), *rows)) + "\n"
