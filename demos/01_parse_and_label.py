"""Parsing CGM record files and labeling hypoglycemia.

A record file is a five-column CSV. The Meal column is "." except on rows
where a reference BG was taken, which is how meal times are marked; the
SensorBG column holds the 5-min sensor readings with N/A for dropouts.
"""

from hypoalarm import label_hypoglycemia, parse_cgm_file, series_to_csv
from hypoalarm.cgm_data import MG_PER_DL_PER_MMOL_L

RECORD = """\
Sample#,Date,Time,Meal,SensorBG
0,7.Sep.15,9:22,.,11.8
1,7.Sep.15,9:27,.,11.4
2,7.Sep.15,9:32,10.2,11.8
3,7.Sep.15,9:37,.,12.2
4,7.Sep.15,9:42,.,N/A
5,7.Sep.15,9:47,.,12.9
"""

series = parse_cgm_file(RECORD, patient_id="demo")
print(f"parsed {len(series.samples)} samples, "
      f"{len(series.meal_times)} meal marker(s), "
      f"{series.missing_count} missing reading(s)")
print("meal at:", series.meal_times[0])

# Readings are mmol/L; mg/dL files convert on the way in (70 mg/dL is the
# classic hypoglycemia boundary and lands at 3.885 mmol/L).
print("70 mg/dL ->", round(70 / MG_PER_DL_PER_MMOL_L, 3), "mmol/L")

# The label is 1 at or under 3.9 mmol/L, 0 above, None for missing readings.
for bg in (5.2, 3.95, 3.9, 2.8, None):
    print(f"label({bg}) = {label_hypoglycemia(bg)}")

# Serialization round-trips: the rendered CSV parses back to the same series.
assert parse_cgm_file(series_to_csv(series), patient_id="demo") == series
print("round trip: ok")
