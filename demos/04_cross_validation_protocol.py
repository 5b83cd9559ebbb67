"""The repeated five-fold evaluation protocol.

Instances are shuffled into five near-equal groups; each group is held out
once against a tree grown on the other four. Four seeded reshuffles of the
allocation give 5 x 4 = 20 performance vectors, and the tree with the best
(sensitivity, accuracy, specificity) becomes the deployment candidate.
"""

from hypoalarm import (
    SynthConfig,
    allocate_folds,
    build_instances,
    cross_validate,
    format_tree,
    generate_cohort,
    select_best_run,
)

# fold sizes stay balanced to within one instance
plan = allocate_folds(1867, 5, seed=0)
print("fold sizes for n=1867, k=5:", [len(g) for g in plan.groups])
print()

instances = []
for series in generate_cohort(SynthConfig(seed=2)):
    instances.extend(build_instances(series))

report = cross_validate(instances, seed=0)
print(f"{len(report.runs)} runs over {report.n_instances} instances")
print("alloc fold  accuracy  sensitivity  specificity")
for entry in report.runs:
    v = entry.vector
    print(f"{entry.allocation:>5} {entry.fold:>4}  {v.accuracy:>8.3f}  "
          f"{v.sensitivity if v.sensitivity is not None else float('nan'):>11.3f}  "
          f"{v.specificity:>11.3f}")

agg = report.aggregate
print(f"\nmeans: accuracy={agg['accuracy']:.3f} "
      f"sensitivity={agg['sensitivity']:.3f} specificity={agg['specificity']:.3f}")

best = select_best_run(report)
print(f"\nbest run: allocation {best.allocation}, fold {best.fold}")
print(format_tree(best.tree))
