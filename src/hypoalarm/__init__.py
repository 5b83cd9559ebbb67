"""Daytime low-glucose alarms from CGM traces and meal times.

Pipeline: parse 5-min CGM records with meal markers, turn each post-meal
window into two-predictor decision instances (current BG and the rate of
decrease from the post-meal peak), fit a cost-weighted depth-limited
classification tree, and evaluate it with repeated seeded k-fold
cross-validation plus per-patient and severity reporting.
"""

__version__ = "0.1.0"

from .cart import (
    CostMatrix,
    alarms,
    format_tree,
    grow_tree,
    leaf_class,
    parse_tree,
    predict,
    serialize_tree,
)
from .cgm_data import (
    PatientSeries,
    PipelineConfig,
    label_hypoglycemia,
    parse_cgm_file,
    series_to_csv,
)
from .evaluation import (
    allocate_folds,
    cross_validate,
    evaluate_per_patient,
    instances_to_arrays,
    metrics,
    missed_event_analysis,
    one_way_anova,
    select_best_run,
    summary_document,
)
from .features import (
    DecisionInstance,
    build_instances,
    read_feature_csv,
    write_feature_csv,
)
from .synth import SynthConfig, generate_cohort
