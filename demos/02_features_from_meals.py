"""From a day of CGM readings to alarm decision instances.

Each meal gets a decision grid 2h .. 3h30m after it, every 15 minutes.
A decision at time t asks: will any reading 15/20/25 min from now be at or
under 3.9 mmol/L? The two predictors are the current reading x_t and the
rate of decrease from the post-meal peak, (peak - x_t) / minutes.
"""

from datetime import datetime, timedelta

import numpy as np

from hypoalarm import PatientSeries, build_instances
from hypoalarm.cgm_data import EPOCH

# One synthetic day, two meals: dinner stays high, the morning meal decays
# into an early-afternoon low.
ANCHORS = [
    ("7:02", 7.0), ("8:42", 7.0), ("9:17", 12.7), ("10:42", 6.6),
    ("10:57", 5.6), ("11:12", 4.8), ("11:27", 3.8), ("11:32", 3.6),
    ("11:37", 3.7), ("11:57", 4.4), ("12:37", 5.2), ("19:07", 9.0),
    ("19:32", 15.7), ("21:07", 8.0), ("21:22", 8.7), ("21:37", 8.4),
    ("22:57", 8.0),
]
MEALS = {"8:42": 6.8, "19:07": 9.2}
DAY_START = (datetime(2015, 9, 7) - EPOCH) // timedelta(minutes=1)


def minute_of_day(hhmm):
    hour, minute = hhmm.split(":")
    return 60 * int(hour) + int(minute)


def clock(minutes):
    """H:MM of a time in minutes since EPOCH, the unit of every pipeline time."""
    return f"{EPOCH + timedelta(minutes=minutes):%H:%M}"


# A series is one (n, 3) array: sample time in minutes since EPOCH,
# sensor BG, and the meal reference BG (NaN on rows without a meal; a
# missing sensor reading would be NaN too).
times = np.arange(minute_of_day("7:02"), minute_of_day("22:57") + 1, 5)
bg = np.interp(times, [minute_of_day(h) for h, _ in ANCHORS], [v for _, v in ANCHORS])
meal_ref = np.full(len(times), np.nan)
for hhmm, ref in MEALS.items():
    meal_ref[times == minute_of_day(hhmm)] = ref
series = PatientSeries("demo", np.column_stack([DAY_START + times, bg, meal_ref]))

# Every instance carries its meal's post-meal peak: the highest reading in
# the 2 h after the meal, the earliest one on ties.
instances = build_instances(series)
peaks = {inst.meal_time: (inst.peak_time, inst.peak_value) for inst in instances}
for meal, (peak_time, peak_value) in peaks.items():
    print(f"meal {clock(meal)}: peak {peak_value} mmol/L at {clock(peak_time)}")

print()
print("decision   x_t    rate      low-in-horizon  label")
for inst in instances:
    print(f"{clock(inst.decision_time)}      {inst.x_t:<6.3g} {inst.rate:<9.3f} "
          f"{inst.ph_min_bg:<15.3g} {inst.label}")
