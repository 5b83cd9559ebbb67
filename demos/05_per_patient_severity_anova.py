"""Per-patient testing, missed-event severity, and the group comparison.

The best cross-validated tree is applied to each patient's own decisions,
every missed alarm is traced to the lowest reading it failed to warn
about (severe when <= 2.8 mmol/L), and a one-way ANOVA asks whether the
per-patient sensitivity differs between diabetes-type groups.
"""

from hypoalarm import (
    SynthConfig,
    build_instances,
    cross_validate,
    evaluate_per_patient,
    generate_cohort,
    missed_event_analysis,
    one_way_anova,
    select_best_run,
)

cohort = generate_cohort(SynthConfig(seed=6))
dm_types = {series.patient_id: series.dm_type for series in cohort}
instances = []
for series in cohort:
    instances.extend(build_instances(series))

tree = select_best_run(cross_validate(instances, seed=0)).tree

rows = evaluate_per_patient(tree, instances, dm_types)
print("patient  type   points  lows  accuracy  sensitivity  specificity")
for row in rows[:12]:
    sens = "-" if row.sensitivity is None else f"{row.sensitivity:.2f}"
    print(f"{row.patient_id:<8} {row.dm_type:<6} {row.n_points:>6} {row.n_hypo:>5}  "
          f"{row.accuracy:>8.2f}  {sens:>11}  {row.specificity:>11.2f}")
print(f"... {len(rows)} patients total\n")

severity = missed_event_analysis(tree, instances)
print(f"missed alarms: {severity.total_missed}, severe (<= 2.8 mmol/L): "
      f"{severity.total_severe}")
for row in severity.rows:
    lows = ", ".join(f"{v:.1f}" for v in row.lows)
    print(f"  {row.patient_id}: missed {row.missed_events} at lows [{lows}]")
print()

groups = {}
for row in rows:
    if row.sensitivity is not None:
        groups.setdefault(row.dm_type, []).append(row.sensitivity)
labels = sorted(k for k, v in groups.items() if len(v) >= 2)
if len(labels) >= 2:
    f_stat, p_value = one_way_anova([groups[k] for k in labels])
    print(f"sensitivity by {' vs '.join(labels)}: F={f_stat:.3f} p={p_value:.3f}")
    print("no significant difference" if p_value > 0.05 else "groups differ")
else:
    print("not enough patients per group for the comparison")
