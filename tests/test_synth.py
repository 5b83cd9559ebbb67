import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypoalarm import build_instances, series_to_csv
from hypoalarm.cgm_data import SAMPLING_PERIOD_MIN
from hypoalarm.synth import SynthConfig, _clamp, generate_cohort

from conftest import SHAPE_CONSTANTS, shape_violations, shaped
from oracle_utils import loop_clamp, loop_generate_cohort


def cohort_instances(cfg):
    out = []
    for series in generate_cohort(cfg):
        out.extend(build_instances(series))
    return out


class TestConfig:
    def test_zero_patients_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            SynthConfig(n_patients=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SynthConfig(seed=-1)

    def test_only_size_and_seed_can_be_set(self):
        assert [f.name for f in fields(SynthConfig)] == ["n_patients", "seed"]
        assert len(SHAPE_CONSTANTS) == 30
        for name in SHAPE_CONSTANTS:
            with pytest.raises(TypeError, match=f"'{name}'$"):
                SynthConfig(**{name: getattr(SynthConfig, name)})

    def test_default_shape_keeps_its_invariants(self):
        assert shape_violations(SynthConfig) == []
        # the clamp keeps a reading at or above 6.45 mmol/L from reaching
        # 3.9 within the 15-min lead time: 2.55/15 is that fall's rate
        assert SynthConfig.max_drop_rate < 2.55 / 15

    @pytest.mark.parametrize("constants, broken", [
        ({"days_min": 0, "days_max": 0}, "days_min >= 1"),
        ({"max_drop_rate": 0.18}, "max_drop_rate < 2.55/15"),
        ({"hypo_pressure": 1.5}, "hypo_pressure"),
        ({"meals_per_day_max": 2.5}, "meals_per_day_max"),
        ({"baseline_min": math.nan}, "baseline_min"),
        ({"rise_max": 10**400}, "rise_max"),
        ({"noise_sd": True}, "noise_sd"),
        ({"max_rise_rate": -1.0}, "max_rise_rate"),
        ({"peak_delay_sd": -1.0}, "peak_delay_sd"),
        ({"nadir_delay_min": 230.0}, "nadir_delay_min <= nadir_delay_max"),
    ])
    def test_shaped_refuses_a_broken_shape(self, constants, broken):
        with pytest.raises(ValueError) as info:
            shaped(**constants)
        assert broken in str(info.value)

    def test_shaped_refuses_a_name_that_is_no_constant(self):
        with pytest.raises(TypeError, match="bg_flor"):
            shaped(bg_flor=1.0)
        with pytest.raises(TypeError, match="seed"):
            shaped(seed=1)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = [series_to_csv(s) for s in generate_cohort(SynthConfig(n_patients=3, seed=5))]
        b = [series_to_csv(s) for s in generate_cohort(SynthConfig(n_patients=3, seed=5))]
        assert a == b

    def test_different_seed_differs(self):
        a = series_to_csv(generate_cohort(SynthConfig(n_patients=1, seed=5))[0])
        b = series_to_csv(generate_cohort(SynthConfig(n_patients=1, seed=6))[0])
        assert a != b

    def test_patients_are_independent_substreams(self):
        # patient k is the same bytes in a cohort of 3 and in one of 40,
        # where it runs beside neighbours with other day counts
        small = generate_cohort(SynthConfig(n_patients=3, seed=7))
        large = generate_cohort(SynthConfig(n_patients=40, seed=7))
        for a, b in zip(small, large):
            assert {len(s.samples) for s in large} - {len(a.samples)}
            assert (a.patient_id, a.dm_type, a.samples.tobytes()) == (
                b.patient_id, b.dm_type, b.samples.tobytes())


def assert_same_cohort(cohort, oracle):
    assert [(s.patient_id, s.dm_type) for s in cohort] == [(s.patient_id, s.dm_type) for s in oracle]
    for a, b in zip(cohort, oracle):
        assert a.samples.tobytes() == b.samples.tobytes(), a.patient_id


def clamp_hits(cfg, cohort):
    """How often each bound of the sensor clamp holds a reading."""
    bg = [s.samples[:, 1] for s in cohort]
    steps = np.concatenate([np.diff(b) for b in bg])
    bg = np.concatenate(bg)
    return {"floor": np.sum(bg == cfg.bg_floor), "ceil": np.sum(bg == cfg.bg_ceil),
            "drop": np.sum(np.abs(steps + cfg.max_drop_rate * SAMPLING_PERIOD_MIN) < 1e-9),
            "rise": np.sum(np.abs(steps - cfg.max_rise_rate * SAMPLING_PERIOD_MIN) < 1e-9)}


class TestLoopOracle:
    """The generator against `loop_generate_cohort`, its scalar per-patient
    reference, whose clamp runs over every reading."""

    @pytest.mark.parametrize("seed", range(7, 17))
    def test_default_shape(self, seed):
        # the oracle builds each patient alone, so its first n patients are
        # the cohort of n
        oracle = loop_generate_cohort(SynthConfig(n_patients=330, seed=seed))
        for n in (1, 33, 330):
            assert_same_cohort(generate_cohort(SynthConfig(n_patients=n, seed=seed)), oracle[:n])

    @pytest.mark.parametrize("constants, biting", [
        ({"bg_floor": 7.0, "bg_ceil": 9.0}, ("floor", "ceil")),
        ({"noise_sd": 1.0, "noise_clip": 3.0, "max_drop_rate": 0.05, "dip_fall_rate_max": 0.049},
         ("drop", "rise")),
        ({"noise_sd": 0.0}, ()),
        ({"days_min": 1, "days_max": 5}, ()),
    ])
    def test_stressed_shapes(self, constants, biting):
        cfg = shaped(**constants)(n_patients=33, seed=7)
        cohort = generate_cohort(cfg)
        assert_same_cohort(cohort, loop_generate_cohort(cfg))
        hits = clamp_hits(cfg, cohort)
        assert all(hits[bound] for bound in biting), hits
        assert len({len(s.samples) for s in cohort}) == cfg.days_max - cfg.days_min + 1


DEFAULT_DROP, DEFAULT_RISE = SynthConfig.max_drop_rate, SynthConfig.max_rise_rate


class TestClampWalk:
    """`_clamp` loops only from the readings that leave their predecessor's
    rate band; it must give `loop_clamp`'s bytes, which loop over all."""

    # default bands: a step may fall 0.275 and rise 1.75 mmol/L
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(SynthConfig.bg_floor - 3, SynthConfig.bg_ceil + 3),
                           min_size=1, max_size=60),
           drop=st.floats(1e-6, DEFAULT_DROP), rise=st.floats(1e-6, DEFAULT_RISE))
    @example(values=[10.0, 9.0, 9.5], drop=DEFAULT_DROP, rise=DEFAULT_RISE)  # a bite at index 1
    @example(values=[10.0, 10.0, 10.0, 13.0], drop=DEFAULT_DROP, rise=DEFAULT_RISE)  # at the end
    @example(values=[10.0, 9.0, 9.6, 5.0, 5.2], drop=DEFAULT_DROP,
             rise=DEFAULT_RISE)  # back-to-back bites: a walk stops, the next reading bites
    @example(values=[10.0, 5.0, 9.6, 9.6], drop=DEFAULT_DROP,
             rise=DEFAULT_RISE)  # 9.6 bites 5.0 but not the 9.725 that the walk made of it
    @example(values=[10.0, 2.0, 2.0, 2.0, 25.0], drop=DEFAULT_DROP,
             rise=DEFAULT_RISE)  # a walk that runs to the end
    def test_matches_the_scalar_loop(self, values, drop, rise):
        # the narrowest bands need slower dip falls to keep the shape's invariants
        cfg = shaped(max_drop_rate=drop, max_rise_rate=rise,
                     dip_fall_rate_min=drop / 2, dip_fall_rate_max=drop / 2)
        expected = np.array(loop_clamp(values, cfg))
        assert _clamp(cfg, np.array(values)).tobytes() == expected.tobytes()


class TestSignalShape:
    def test_zero_pressure_means_zero_alarms(self):
        instances = cohort_instances(shaped(hypo_pressure=0.0)(n_patients=8, seed=2))
        assert instances
        assert sum(inst.label for inst in instances) == 0

    def test_bg_bounds_and_step_limits(self):
        cfg = SynthConfig(n_patients=4, seed=3)
        for series in generate_cohort(cfg):
            readings = [(m, bg) for m, bg, _ in series.samples.tolist() if not math.isnan(bg)]
            assert all(1.5 < bg <= 25.0 for _, bg in readings)
            for (t1, v1), (t2, v2) in zip(readings, readings[1:]):
                minutes = t2 - t1
                assert v2 - v1 >= -cfg.max_drop_rate * minutes - 1e-9
                assert v2 - v1 <= cfg.max_rise_rate * minutes + 1e-9

    def test_meal_markers_sit_on_the_sample_grid(self):
        for series in generate_cohort(SynthConfig(n_patients=4, seed=4)):
            stamps = set(series.minutes.tolist())
            assert all(m % 5 == 0 for m in stamps)
            assert len(series.meal_times)
            assert all(m in stamps for m in series.meal_times.tolist())

    def test_missing_samples_exist_but_rows_are_kept(self):
        cohort = generate_cohort(shaped(missing_prob=0.05)(n_patients=5, seed=6))
        assert any(series.missing_count > 0 for series in cohort)

    def test_prevalence_monotone_in_pressure(self):
        for seed in (0, 1):
            rates = []
            for pressure in (0.05, 0.15, 0.30):
                cfg = shaped(hypo_pressure=pressure)(n_patients=10, seed=seed)
                instances = cohort_instances(cfg)
                rates.append(sum(i.label for i in instances) / len(instances))
            assert rates[0] <= rates[1] <= rates[2]

    def test_dm_types_cover_the_expected_values(self):
        cohort = generate_cohort(SynthConfig(seed=0))
        assert {series.dm_type for series in cohort} <= {"type1", "type2", "other"}
        assert sum(series.dm_type == "type1" for series in cohort) >= 10
