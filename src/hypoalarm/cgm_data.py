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
from dataclasses import dataclass
from datetime import datetime, time, timedelta

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

_EPOCH = datetime(2000, 1, 1)


class DataValidationError(ValueError):
    """An input file violates the ingestion contract."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


@dataclass(frozen=True, eq=False)
class PatientSeries:
    """One patient's ordered 5-min CGM trace; immutable once built.

    `samples` is a read-only ``(n, 3)`` float64 array with one row per
    reading: minutes since 2000-01-01, sensor BG and meal reference BG
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
        """Sample times in minutes since 2000-01-01."""
        return self.samples[:, 0]

    @property
    def bg(self) -> np.ndarray:
        """Sensor BG per sample, NaN where the reading is missing."""
        return self.samples[:, 1]

    @property
    def meal_ref(self) -> np.ndarray:
        """Reference BG marking a meal, NaN on rows without one."""
        return self.samples[:, 2]

    def timestamp(self, i: int) -> datetime:
        """Time of sample `i`."""
        return _EPOCH + timedelta(minutes=float(self.minutes[i]))

    @property
    def meal_times(self) -> tuple[datetime, ...]:
        return tuple(self.timestamp(i) for i in np.flatnonzero(~np.isnan(self.meal_ref)))

    @property
    def missing_count(self) -> int:
        return int(np.isnan(self.bg).sum())


@dataclass(frozen=True)
class PipelineConfig:
    """Fixed pipeline constants; everything downstream reads them from here.

    Decisions happen on a 15-min grid from 2 h to 3 h 30 m after a meal,
    each one asking whether any of the readings 15/20/25 min ahead will be
    at or under the alarm threshold.
    """

    hypo_threshold: float = HYPO_THRESHOLD
    lead_time_min: int = 15
    horizon_offsets_min: tuple[int, ...] = (15, 20, 25)
    peak_window_min: int = 120
    decision_offsets_min: tuple[int, ...] = (120, 135, 150, 165, 180, 195, 210)
    daytime_start: time = time(7, 0)
    daytime_end: time = time(23, 0)
    snap_tolerance_min: float = 2.5
    costs: CostMatrix = CostMatrix(15.0, 1.0)
    prune_depth: int = 3
    folds: int = 5
    allocations: int = 4

    def __post_init__(self):
        offs = self.horizon_offsets_min
        if not offs or list(offs) != sorted(set(offs)) or offs[0] != self.lead_time_min:
            raise ValueError("horizon offsets must increase strictly and start at the lead time")
        dec = self.decision_offsets_min
        if not dec or dec[0] != self.peak_window_min:
            raise ValueError("decision grid must start at the end of the peak window")
        if any(b - a != 15 for a, b in zip(dec, dec[1:])):
            raise ValueError("decision grid must step by 15 minutes")
        if self.snap_tolerance_min < 0:
            raise ValueError("snap tolerance must be >= 0")
        if self.prune_depth < 1 or self.folds < 2 or self.allocations < 1:
            raise ValueError("prune_depth >= 1, folds >= 2, allocations >= 1 required")


def to_mmol(value: float, unit: str) -> float:
    """Convert a BG reading to mmol/L; `unit` is "mmol" or "mg"."""
    if unit not in ("mmol", "mg"):
        raise ValueError(f"unknown unit {unit!r}, expected 'mmol' or 'mg'")
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"BG must be finite and positive, got {value!r}")
    return float(value) if unit == "mmol" else value / MG_PER_DL_PER_MMOL_L


def label_hypoglycemia(bg: float | None, threshold: float = HYPO_THRESHOLD) -> int | None:
    """1 when BG is at or under the threshold, 0 above, None when missing."""
    if bg is None:
        return None
    return 1 if bg <= threshold else 0


def _is_digits(cell: str, widths=range(1, 3)) -> bool:
    """True when `cell` is plain ASCII digits, as many as one of `widths`."""
    return len(cell) in widths and cell.isascii() and cell.isdigit()


def _parse_minute(date_cell: str, time_cell: str, day_starts: dict, line: int) -> int:
    """Minutes since 2000-01-01 of one row. `day_starts` caches the first
    minute of each date cell, so a file parses each distinct date once."""
    try:
        if date_cell not in day_starts:
            day_s, month_s, year_s = date_cell.split(".")
            if not (_is_digits(day_s) and _is_digits(year_s, (2,))):
                raise ValueError("the day must be one or two digits, the year two")
            day = datetime(2000 + int(year_s), _MONTH_NAMES.index(month_s) + 1, int(day_s))
            day_starts[date_cell] = (day - _EPOCH).days * 1440
        return day_starts[date_cell] + _DAY_MINUTES[time_cell]
    except (KeyError, ValueError, OverflowError):
        raise DataValidationError(
            f"malformed timestamp {date_cell!r} {time_cell!r}", row=line) from None


def _parse_bg(cell: str, column: str, unit: str, line: int) -> float:
    try:
        value = to_mmol(float(cell), unit)
    except ValueError:
        value = None
    if value is None or value > BG_MAX:
        raise DataValidationError(
            f"{column} must be a number in (0, {BG_MAX}] mmol/L, got {cell!r}", row=line)
    return value


def parse_cgm_file(text, patient_id: str = "unknown", dm_type: str = "other",
                   unit: str = "mmol") -> PatientSeries:
    """Parse one patient's CSV export into a validated PatientSeries.

    `text` may be a string or a file-like object. Malformed rows are
    rejected with their 1-based line number; `unit="mg"` converts both BG
    columns from mg/dL on the way in.
    """
    if hasattr(text, "read"):
        text = text.read()
    if unit not in ("mmol", "mg"):
        raise ValueError(f"unknown unit {unit!r}, expected 'mmol' or 'mg'")

    rows = list(csv.reader(io.StringIO(text, newline="")))  # any of \n, \r\n, \r ends a row
    if not rows or tuple(cell.strip() for cell in rows[0]) != CSV_COLUMNS:
        raise DataValidationError(
            f"expected header {','.join(CSV_COLUMNS)!r}", row=1)

    samples = []
    day_starts = {}
    for line, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            raise DataValidationError(f"expected 5 columns, got {len(row)}", row=line)
        sample_no, date_cell, time_cell, meal_cell, bg_cell = (c.strip() for c in row)
        if not (sample_no.isascii() and sample_no.isdigit()):
            raise DataValidationError(
                f"Sample# is not a non-negative integer: {sample_no!r}", row=line)
        minute = _parse_minute(date_cell, time_cell, day_starts, line)
        if samples and minute <= samples[-1][0]:
            raise DataValidationError(
                f"timestamps not strictly increasing at {date_cell} {time_cell}", row=line)
        meal_ref = math.nan if meal_cell == "." else _parse_bg(meal_cell, "Meal", unit, line)
        bg = math.nan if bg_cell == "N/A" else _parse_bg(bg_cell, "SensorBG", unit, line)
        samples.append((minute, bg, meal_ref))

    return PatientSeries(patient_id=patient_id, samples=samples, dm_type=dm_type)


def series_to_csv(series: PatientSeries) -> str:
    """Render the ingestion CSV format; inverse of `parse_cgm_file`."""
    lines = [",".join(CSV_COLUMNS)]
    date_cells = {}
    for i, (minute, bg, meal_ref) in enumerate(series.samples.tolist()):
        day, minute_of_day = divmod(int(minute), 1440)
        if day not in date_cells:
            d = _EPOCH + timedelta(days=day)
            date_cells[day] = f"{d.day}.{_MONTH_NAMES[d.month - 1]}.{d.year % 100:02d}"
        meal_cell = "." if math.isnan(meal_ref) else repr(meal_ref)
        bg_cell = "N/A" if math.isnan(bg) else repr(bg)
        lines.append(f"{i},{date_cells[day]},{minute_of_day // 60}:{minute_of_day % 60:02d},"
                     f"{meal_cell},{bg_cell}")
    return "\n".join(lines) + "\n"
