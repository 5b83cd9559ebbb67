"""Fitting the cost-weighted tree and reading its rules.

Missing an impending low costs 15 times a false alarm, so the impurity,
the split search, and the leaf labels all weight the rare alarm class by
15. The result: leaves turn to H long before alarms outnumber quiet cases.
"""

import json

from hypoalarm import (
    CostMatrix,
    SynthConfig,
    build_instances,
    format_tree,
    generate_cohort,
    grow_tree,
    instances_to_arrays,
    leaf_class,
    parse_tree,
    predict,
    serialize_tree,
)

costs = CostMatrix(cost_fn=15.0, cost_fp=1.0)

# With 15 quiet cases and one low, the weighted class masses balance out:
# the low holds half the cost-weighted mass, so the Gini 2p(1-p) peaks.
p_h = costs.cost_fn * 1 / (costs.cost_fn * 1 + costs.cost_fp * 15)
print("weighted gini of (n_N=15, n_H=1):", 2 * p_h * (1 - p_h))
print("leaf label for (n_N=15, n_H=1):", leaf_class(15, 1, costs))
print("leaf label for (n_N=100, n_H=3):", leaf_class(100, 3, costs))
print()

instances = []
for series in generate_cohort(SynthConfig(seed=4)):
    instances.extend(build_instances(series))
X, y = instances_to_arrays(instances)
print(f"training on {len(instances)} decisions, {int(y.sum())} of them alarms")

tree = grow_tree(X, y, costs, max_depth=3)
print(format_tree(tree))
print()

# A reading of 8 mmol/L cannot fall to 3.9 within the lead time, whatever
# the rate; a low and falling reading alarms.
for x_t, rate in ((8.0, 0.081), (4.3, 0.07), (6.9, 0.01)):
    print(f"predict(x_t={x_t}, rate={rate}) -> {predict(tree, x_t, rate)}")

# Trees serialize to JSON and parse back identically.
doc = json.dumps(serialize_tree(tree))
assert parse_tree(json.loads(doc)) == tree
print("serialization round trip: ok")
