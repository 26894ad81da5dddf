import math
import os
import re
import statistics
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    AucSummary,
    BayesNet,
    DagStructure,
    DegenerateInput,
    DomainError,
    MetricSpec,
    RocCurve,
    ScoredPair,
    Variable,
    auc_from_pairs,
    auc_summary_csv,
    enumerate_pair_sets,
    joint_cell_counts,
    marginally_d_separated_pairs,
    mean_roc,
    mean_roc_csv,
    run_alarm_experiment,
    t_confidence_interval,
)
from bnscore import model, rocstats, scoring
from bnscore.genbench import EXAMPLES, _sample_stack, forward_sample, run_example
from bnscore.model import _pair_count_tables
from bnscore.rocstats import DEFAULT_FPR_GRID, DEFAULT_METRICS, DEFAULT_SIZES
from bnscore.scoring import _arc_posteriors, _pair_log_ratios, arc_posterior_from_counts

from .helpers import traced_peak
from .oracles import (
    mann_whitney_reference,
    mean_roc_reference,
    roc_points_reference,
    trapezoid_reference,
)

# Integer-valued scores tie often; -0.0 must share a tie group with 0.0.
tie_heavy_scores = st.one_of(st.integers(-4, 4).map(float), st.just(-0.0))


def scored(pos, neg):
    pairs = [ScoredPair(0, i + 1, True, s) for i, s in enumerate(pos)]
    pairs += [ScoredPair(1, i + 2, False, s) for i, s in enumerate(neg)]
    return pairs


class TestRocPoints:
    def test_interleaved_example(self):
        """Positives {0.9, 0.4} against negatives {0.6, 0.1}."""
        area, curve = auc_from_pairs(scored([0.9, 0.4], [0.6, 0.1]))
        assert curve.points == (
            (0.0, 0.0),
            (0.0, 0.5),
            (0.5, 0.5),
            (0.5, 1.0),
            (1.0, 1.0),
        )
        assert area == pytest.approx(0.75, abs=1e-15)

    def test_perfect_separation(self):
        area, curve = auc_from_pairs(scored([3.0, 2.0], [1.0, 0.0]))
        assert area == pytest.approx(1.0, abs=1e-15)
        assert (0.0, 1.0) in curve.points

    def test_all_scores_tied_gives_diagonal(self):
        area, curve = auc_from_pairs(scored([0.5, 0.5], [0.5, 0.5, 0.5]))
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert area == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DegenerateInput):
            auc_from_pairs(scored([0.9, bad], [0.6, 0.1]))

    def test_single_label_rejected(self):
        with pytest.raises(DegenerateInput):
            auc_from_pairs([ScoredPair(0, 1, True, 0.2)])
        with pytest.raises(DegenerateInput):
            auc_from_pairs(scored([0.3, 0.2], []))

    def test_curve_shape_validated(self):
        # Rates must rise from fpr 0 to (1, 1) and stay in [0, 1]; NaN fails.
        for points in [
            ((0.2, 0.0), (1.0, 1.0)),
            ((0.0, 0.0), (0.5, 0.9)),
            ((0.0, 0.5), (0.5, 0.2), (1.0, 1.0)),
            ((0.0, math.nan), (1.0, 1.0)),
            ((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)),
            ((0.0, -5.0), (1.0, 1.0)),
            ((0.0, 0.0), (1.5, 1.0), (1.0, 1.0)),
        ]:
            with pytest.raises(DegenerateInput):
                RocCurve(points)

    def test_signed_zeros_are_one_tie_group(self):
        _, curve = auc_from_pairs(scored([0.0, 1.0], [-0.0]))
        assert curve.points == ((0.0, 0.0), (0.0, 0.5), (1.0, 1.0))

    @given(
        st.lists(tie_heavy_scores, min_size=1, max_size=46),
        st.lists(tie_heavy_scores, min_size=1, max_size=46),
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_equals_dict_reference(self, pos, neg):
        pairs = scored(pos, neg)
        assert auc_from_pairs(pairs)[1].points == roc_points_reference(pairs)


class TestAucCrossChecks:
    def test_mann_whitney_matches_example(self):
        pairs = scored([0.9, 0.4], [0.6, 0.1])
        assert mann_whitney_reference(pairs) == pytest.approx(0.75)
        assert auc_from_pairs(pairs)[0] == pytest.approx(0.75)

    def test_ties_count_half(self):
        pairs = scored([0.5], [0.5])
        assert mann_whitney_reference(pairs) == pytest.approx(0.5)
        assert auc_from_pairs(pairs)[0] == pytest.approx(0.5)

    def test_label_swap_reflects_auc(self):
        pairs = scored([0.9, 0.4, 0.3], [0.6, 0.1])
        flipped = [ScoredPair(p.x, p.y, not p.label, p.score) for p in pairs]
        a, _ = auc_from_pairs(pairs)
        b, _ = auc_from_pairs(flipped)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=12),
        st.lists(st.integers(0, 8), min_size=1, max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_trapezoid_equals_rank_statistic(self, pos, neg):
        # Integer scores force plenty of ties, the hard case for the sweep.
        pairs = scored([float(s) for s in pos], [float(s) for s in neg])
        area, curve = auc_from_pairs(pairs)
        assert abs(area - mann_whitney_reference(pairs)) <= 1e-12
        assert 0.0 <= area <= 1.0
        assert curve.points[0] == (0.0, 0.0)

    @given(
        st.lists(tie_heavy_scores, min_size=1, max_size=46),
        st.lists(tie_heavy_scores, min_size=1, max_size=46),
    )
    @settings(max_examples=200, deadline=None)
    def test_area_equals_loop_trapezoid(self, pos, neg):
        # The vectorised trapezoid adds in the loop's order, so no digit moves.
        pairs = scored(pos, neg)
        area, _ = auc_from_pairs(pairs)
        assert area == trapezoid_reference(roc_points_reference(pairs))
        assert abs(area - mann_whitney_reference(pairs)) <= 1e-12


class TestMeanRoc:
    def test_step_average_of_two_curves(self):
        perfect = RocCurve(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
        diagonal = RocCurve(((0.0, 0.0), (1.0, 1.0)))
        mean = mean_roc([perfect, diagonal])
        assert mean.points == tuple((g, 0.5) for g in DEFAULT_FPR_GRID[:-1]) + ((1.0, 1.0),)

    def test_average_of_identical_curves_is_the_curve(self):
        _, curve = auc_from_pairs(scored([0.9, 0.4], [0.6, 0.1]))
        mean = mean_roc([curve, curve])
        assert DEFAULT_FPR_GRID[23] == 0.5
        assert mean.points == tuple((g, 0.5 if g < 0.5 else 1.0) for g in DEFAULT_FPR_GRID)

    def test_default_grid(self):
        assert len(DEFAULT_FPR_GRID) == 47
        assert DEFAULT_FPR_GRID[0] == 0.0
        assert DEFAULT_FPR_GRID[-1] == 1.0
        _, curve = auc_from_pairs(scored([0.9], [0.1]))
        mean = mean_roc([curve])
        assert len(mean.points) == 47

    def test_grid_validation(self):
        _, curve = auc_from_pairs(scored([0.9], [0.1]))
        assert [f for f, _ in mean_roc([curve]).points] == list(DEFAULT_FPR_GRID)
        with pytest.raises(DegenerateInput):
            mean_roc([])

    @given(
        st.lists(
            st.tuples(
                st.lists(tie_heavy_scores, min_size=1, max_size=12),
                st.lists(tie_heavy_scores, min_size=1, max_size=46),
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_mean_equals_rescan_reference(self, draws):
        # Past 8 curves numpy's pairwise sum along a contiguous axis would
        # reorder the additions; the sum must add one curve at a time.
        curves = [auc_from_pairs(scored(pos, neg))[1] for pos, neg in draws]
        assert mean_roc(curves).points == mean_roc_reference(curves, DEFAULT_FPR_GRID)


class TestTConfidenceInterval:
    def test_two_point_sample_frozen_value(self):
        # mean 1/2, s = 1/sqrt(2), half-width t(.975, 1) * s / sqrt(2)
        mean, lo, hi = t_confidence_interval([0.0, 1.0])
        assert mean == pytest.approx(0.5)
        assert hi - mean == pytest.approx(6.3531023680873355, abs=1e-6)
        assert mean - lo == pytest.approx(hi - mean, abs=1e-12)

    def test_zero_spread_collapses(self):
        assert t_confidence_interval([0.3] * 5) == (0.3, 0.3, 0.3)

    def test_interval_narrows_with_more_data(self):
        wide = t_confidence_interval([0.0, 1.0])
        narrow = t_confidence_interval([0.0, 1.0] * 20)
        assert narrow[2] - narrow[1] < wide[2] - wide[1]

    def test_needs_two_values(self):
        with pytest.raises(DegenerateInput):
            t_confidence_interval([0.4])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([math.nan, 1.0], "values must be finite"),
            ([math.inf, 1.0], "values must be finite"),
            ([1e308, -1e308], "the 95% interval overflows float range"),
            ([1e308, 1e308], "the 95% interval overflows float range"),
        ],
        ids=["nan", "inf", "spread-overflows", "mean-overflows"],
    )
    def test_non_finite_or_overflowing_input_rejected(self, values, message):
        with pytest.raises(DegenerateInput) as exc:
            t_confidence_interval(values)
        assert str(exc.value) == message

    def test_quantile_matches_scipy(self):
        # scipy is itself within 19 ulp of the correctly rounded quantile for
        # df 1-199 and within 3 ulp at large df; 1e-14 is about 45 ulp at 2.
        dfs = [*range(1, 10_001), 10**5, 10**6]
        ours = np.array([rocstats._t_quantile(df) for df in dfs])
        expected = scipy.stats.t.ppf(0.975, np.array(dfs, dtype=float))
        np.testing.assert_allclose(ours, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 99])
    def test_matches_scipy_interval(self, df):
        values = np.random.default_rng(df).random(df + 1).tolist()
        mean, lo, hi = t_confidence_interval(values)
        expected = scipy.stats.t.interval(
            0.95, df, loc=np.mean(values), scale=scipy.stats.sem(values)
        )
        assert mean == pytest.approx(np.mean(values), rel=1e-12)
        assert (lo, hi) == pytest.approx(expected, rel=1e-12)

    # Finite floats with subnormals, magnitudes near 1e308 and repeats.
    finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-307, 1e-307, allow_nan=False),
        st.floats(1e307, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x])),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    )
    samples = st.one_of(
        st.lists(finite, min_size=2, max_size=200),
        st.lists(finite, min_size=1, max_size=5).flatmap(
            lambda xs: st.lists(st.sampled_from(xs), min_size=2, max_size=200)),
    )

    @given(samples)
    @settings(max_examples=500, deadline=None)
    def test_stdev_equals_statistics(self, values):
        """The exact-integer root gives statistics.stdev's float, or its
        OverflowError when the root leaves float range."""
        try:
            want = statistics.stdev(values)
        except OverflowError:
            with pytest.raises(OverflowError):
                rocstats._stdev(values)
        else:
            got = rocstats._stdev(values)
            assert type(got) is float
            assert math.copysign(1.0, got) == 1.0 and got == want

    @given(samples)
    @settings(max_examples=300, deadline=None)
    def test_interval_as_statistics_gives_it(self, values):
        """The interval t_confidence_interval gave when it took the mean and
        deviation from statistics: fmean and stdev, with an overflow in either
        read as infinite, and a zero spread collapsing the interval."""
        try:
            m, sd = statistics.fmean(values), statistics.stdev(values)
        except OverflowError:
            m = sd = math.inf
        if sd == 0.0:
            want = (m, m, m)
        else:
            half = rocstats._t_quantile(len(values) - 1) * sd / math.sqrt(len(values))
            finite = math.isfinite(m - half) and math.isfinite(m + half)
            want = (m, m - half, m + half) if finite else None
        if want is None:
            with pytest.raises(DegenerateInput, match="^the 95% interval overflows float range$"):
                t_confidence_interval(values)
        else:
            assert t_confidence_interval(values) == want


class TestAucSummary:
    def test_ci_clipped_to_unit_interval(self):
        s = AucSummary("bdeu", 4.0, 20, 0.9, -0.2, 1.4, 25)
        assert s.ci_low == 0.0
        assert s.ci_high == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(DegenerateInput):
            AucSummary("k2", None, 20, 0.9, 0.95, 1.0, 25)


def tiny_collider_net():
    vs = (Variable("X", 2), Variable("Y", 2), Variable("Z", 2))
    s = DagStructure(vs, ((), (), (0, 1)))
    cpts = (
        np.array([[0.5, 0.5]]),
        np.array([[0.5, 0.5]]),
        np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7], [0.6, 0.4]]),
    )
    return BayesNet(s, cpts)


class TestPairEnumeration:
    def test_collider_parents_are_marginally_separated(self):
        assert marginally_d_separated_pairs(tiny_collider_net()) == ((0, 1),)

    def test_alarm_candidate_count(self, alarm):
        assert len(marginally_d_separated_pairs(alarm.net)) == 365

    def test_alarm_pair_sets(self, alarm):
        sets = enumerate_pair_sets(alarm.net, seed=42)
        assert sets.positives == alarm.net.structure.arcs()
        assert len(sets.positives) == 46
        assert len(sets.negatives) == 46
        assert sets.n_candidates == 365
        assert list(sets.negatives) == sorted(sets.negatives)
        assert len(set(sets.negatives)) == 46
        candidates = set(marginally_d_separated_pairs(alarm.net))
        assert set(sets.negatives) <= candidates

    def test_negative_draw_seeded(self, alarm):
        a = enumerate_pair_sets(alarm.net, seed=3)
        b = enumerate_pair_sets(alarm.net, seed=3)
        c = enumerate_pair_sets(alarm.net, seed=4)
        assert a == b
        assert a.negatives != c.negatives

    def test_insufficient_negatives(self):
        with pytest.raises(DegenerateInput) as exc:
            enumerate_pair_sets(tiny_collider_net(), negatives=46)
        assert str(exc.value) == (
            "requested 46 negatives but only 1 marginally d-separated pairs exist"
        )

    @pytest.mark.parametrize("negatives, seed", [(46, -1), (-1, 1)])
    def test_negative_count_or_seed_rejected(self, alarm, negatives, seed):
        with pytest.raises(DegenerateInput, match="must be non-negative"):
            enumerate_pair_sets(alarm.net, negatives, seed)

    @pytest.mark.parametrize(
        "negatives, seed, message",
        [
            (46, 1.5, "46 and 1.5"),
            (1.5, 1, "1.5 and 1"),
            (46, True, "46 and True"),
            (True, 1, "True and 1"),
            ("46", 1, "'46' and 1"),
        ],
        ids=["float-seed", "float-count", "bool-seed", "bool-count", "str-count"],
    )
    def test_non_integer_count_or_seed_rejected(self, alarm, negatives, seed, message):
        with pytest.raises(DegenerateInput) as exc:
            enumerate_pair_sets(alarm.net, negatives, seed)
        assert str(exc.value) == f"negatives and seed must be integers, got {message}"

    def test_numpy_integer_count_and_seed_accepted(self, alarm):
        assert enumerate_pair_sets(alarm.net, np.int64(46), np.int64(3)) == enumerate_pair_sets(
            alarm.net, 46, 3
        )


class TestAlarmExperiment:
    SMALL = dict(sizes=(5, 10), reps=3, seed=7)

    def test_small_run_shape(self, alarm):
        metrics = (MetricSpec.bdeu(4.0), MetricSpec.gu())
        result = run_alarm_experiment(alarm.net, metrics=metrics, **self.SMALL)
        assert len(result.summaries) == 2 * 2
        assert set(result.mean_curves) == {
            ("bdeu4", 5),
            ("bdeu4", 10),
            ("gu", 5),
            ("gu", 10),
        }
        for s in result.summaries:
            assert 0.0 <= s.ci_low <= s.mean_auc <= s.ci_high <= 1.0
            assert s.reps == 3
        for curve in result.mean_curves.values():
            assert len(curve.points) == 47

    def test_results_independent_of_job_count(self, alarm):
        metrics = (MetricSpec.k2(),)
        serial = run_alarm_experiment(alarm.net, metrics=metrics, jobs=1, **self.SMALL)
        parallel = run_alarm_experiment(alarm.net, metrics=metrics, jobs=2, **self.SMALL)
        assert serial.summaries == parallel.summaries
        assert serial.mean_curves == parallel.mean_curves

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(100_000, 64, 4), (100_000, 2, 2), (3, 64, 3), (100_000, None, None), (1, 64, None)],
    )
    def test_pool_never_exceeds_tasks_or_cpus(self, alarm, monkeypatch, jobs, cpus, workers):
        started = []

        def serial_workers(fn, tasks, count):
            started.append(count)
            return [fn(*task) for task in tasks]

        monkeypatch.setattr(rocstats, "_forked_map", serial_workers)
        if cpus is None:
            # A platform with no affinity mask runs the study in-process.
            monkeypatch.delattr(rocstats.os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr(rocstats.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        metrics = (MetricSpec.k2(),)
        # 2 sizes x 2 chunks (a full chunk and one more replicate): 4 tasks
        small = dict(self.SMALL, reps=rocstats._CHUNK_REPS + 1)
        result = run_alarm_experiment(alarm.net, metrics=metrics, jobs=jobs, **small)
        serial = run_alarm_experiment(alarm.net, metrics=metrics, jobs=1, **small)
        assert started == ([] if workers is None else [workers])
        assert result.summaries == serial.summaries
        assert result.mean_curves == serial.mean_curves

    def test_pool_counts_only_cpus_the_process_may_use(self, alarm, monkeypatch):
        def no_workers(fn, tasks, count):
            raise AssertionError(f"forked {count} workers with one usable CPU")

        # Pinned to one CPU of a 64-CPU host, as by taskset.
        monkeypatch.setattr(rocstats, "_forked_map", no_workers)
        monkeypatch.setattr(rocstats.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(rocstats.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        small = dict(self.SMALL, reps=2)
        result = run_alarm_experiment(alarm.net, metrics=(MetricSpec.k2(),), jobs=64, **small)
        assert [s.reps for s in result.summaries] == [2, 2]

    def test_replicates_keep_grid_rows_not_curves(self, alarm):
        """A replicate keeps, per metric, its AUC and 47 grid values: the
        study's tracemalloc peak grows by under 8 KB a replicate of 5 metrics."""

        def peak(reps):
            return traced_peak(lambda: run_alarm_experiment(alarm.net, (5,), reps, jobs=1))[1]

        peak(2)  # imports and memos fill outside the measured runs
        assert (peak(50) - peak(10)) / 40 < 8_000

    def test_reruns_identical(self, alarm):
        metrics = (MetricSpec.gu(),)
        a = run_alarm_experiment(alarm.net, metrics=metrics, **self.SMALL)
        b = run_alarm_experiment(alarm.net, metrics=metrics, **self.SMALL)
        assert auc_summary_csv(a.summaries) == auc_summary_csv(b.summaries)
        assert mean_roc_csv(a.mean_curves) == mean_roc_csv(b.mean_curves)

    @pytest.mark.parametrize("reps", [2, 5])
    def test_pairs_are_checked_once_per_study(self, alarm, monkeypatch, reps):
        """The 92 pairs are checked before the first replicate, not in each."""
        checked = []

        def counting(check):
            def wrapper(component, variables):
                checked.append(tuple(component))
                return check(component, variables)

            return wrapper

        for module in (model, rocstats):
            monkeypatch.setattr(module, "_checked_component", counting(module._checked_component))
        result = run_alarm_experiment(
            alarm.net, sizes=(5,), reps=reps, metrics=(MetricSpec.k2(),), jobs=1
        )
        assert checked == [*result.pairs.positives, *result.pairs.negatives]
        assert len(checked) == 92

    def test_needs_two_replicates(self, alarm, monkeypatch):
        def sampling_must_not_run(*args):
            raise AssertionError("sampled before the replicate count was checked")

        monkeypatch.setattr(rocstats, "_sample_stack", sampling_must_not_run)
        with pytest.raises(DegenerateInput, match="^need at least 2 replicates, got 1$"):
            run_alarm_experiment(alarm.net, sizes=(5,), reps=1)

    def test_negative_seed_rejected(self, alarm):
        with pytest.raises(DegenerateInput, match="must be non-negative"):
            run_alarm_experiment(alarm.net, sizes=(5,), reps=2, seed=-3)

    @pytest.mark.parametrize(
        "sizes, metrics, named",
        [
            ((5,), (MetricSpec.k2(), MetricSpec.k2()), "metric 'k2'"),
            ((5,), (MetricSpec.bdeu(4.0), MetricSpec.gu(), MetricSpec.bdeu(4)), "metric 'bdeu4'"),
            ((5,), (MetricSpec.bdeu(1e-7), MetricSpec.parse("bdeu0.0000001")), "metric 'bdeu1e-07'"),
            ((5, 10, 5), (MetricSpec.k2(),), "size 5"),
        ],
    )
    def test_repeated_metric_label_or_size_rejected(self, alarm, sizes, metrics, named):
        # Results are keyed by (label, size): a repeat would write more AUC
        # rows than mean curves.
        with pytest.raises(DegenerateInput, match=named):
            run_alarm_experiment(alarm.net, sizes=sizes, reps=2, metrics=metrics)

    @pytest.mark.parametrize(
        "sizes, named",
        [((5.7,), "5.7"), ((5.7, 5), "5.7"), ((5, "10"), "'10'"), ((True,), "True")],
    )
    def test_non_integer_size_rejected(self, alarm, sizes, named):
        # int() would have run N=5 for 5.7, or refused 5.7 and 5 as one size;
        # operator.index would have run True as N=1.
        with pytest.raises(DegenerateInput, match=f"^size {re.escape(named)} is not an integer$"):
            run_alarm_experiment(alarm.net, sizes=sizes, reps=2)

    @pytest.mark.parametrize(
        "given, message",
        [
            (dict(sizes=(-1,)), "size -1 is negative"),
            (dict(sizes=(5, -3)), "size -3 is negative"),
            (dict(reps=2.5), "reps, seed and jobs must be integers, got 2.5, 42 and 1"),
            (dict(reps=True), "reps, seed and jobs must be integers, got True, 42 and 1"),
            (dict(seed=1.5), "reps, seed and jobs must be integers, got 2, 1.5 and 1"),
            (dict(jobs=1.5), "reps, seed and jobs must be integers, got 2, 42 and 1.5"),
            (dict(seed=-1), "seed must be non-negative, got -1"),
            (dict(jobs=0), "jobs must be at least 1, got 0"),
            (dict(jobs=-2), "jobs must be at least 1, got -2"),
            (dict(metrics=()), "need at least one metric"),
        ],
        ids=["negative-size", "negative-second-size", "float-reps", "bool-reps", "float-seed",
             "float-jobs", "negative-seed", "zero-jobs", "negative-jobs", "no-metrics"],
    )
    def test_bad_count_or_seed_rejected_before_any_work(self, alarm, monkeypatch, given, message):
        # Refused with the study's own error, before the pairs are drawn.
        monkeypatch.setattr(rocstats, "enumerate_pair_sets", None)
        monkeypatch.setattr(rocstats, "_sample_stack", None)
        with pytest.raises(DegenerateInput) as exc:
            run_alarm_experiment(alarm.net, **{"sizes": (5,), "reps": 2, **given})
        assert str(exc.value) == message

    def test_numpy_integer_size_accepted(self, alarm):
        result = run_alarm_experiment(
            alarm.net, sizes=(np.int64(5),), reps=2, metrics=(MetricSpec.k2(),)
        )
        assert [(type(s.n), s.n) for s in result.summaries] == [(int, 5)]
        assert list(result.mean_curves) == [("k2", 5)]

    def test_defaults(self):
        assert DEFAULT_SIZES == (5, 10, 20, 40, 80, 160)
        assert [m.label for m in DEFAULT_METRICS] == [
            "bdeu0.01",
            "bdeu1",
            "bdeu4",
            "k2",
            "gu",
        ]


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="forked workers need os.sched_setaffinity"
)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_affinity
class TestForkedWorkers:
    """rocstats._forked_map: one forked child per CPU, each pinned to its own
    and running a fixed share of the tasks, results in task order, a child's
    fault raised here, and no child left."""

    @pytest.mark.bounded
    def test_each_child_is_pinned_to_its_own_cpu(self):
        def mask():
            return os.getpid(), os.sched_getaffinity(0)

        parent = os.sched_getaffinity(0)
        workers = len(parent)
        seen = dict(rocstats._forked_map(mask, [()] * 8 * workers, workers))
        assert len(seen) == workers
        assert all(len(pinned) == 1 for pinned in seen.values())
        assert len(set().union(*seen.values())) == workers
        assert set().union(*seen.values()) <= parent
        assert os.sched_getaffinity(0) == parent
        assert_no_child_left()

    @pytest.mark.bounded
    def test_child_w_runs_tasks_w_plus_multiples_of_workers(self):
        # Task 0 is slow: a shared queue would hand task `workers` to another
        # child, a fixed share leaves it to child 0.
        def task(i):
            if i == 0:
                time.sleep(0.05)
            return os.getpid(), os.sched_getaffinity(0)

        cpus = sorted(os.sched_getaffinity(0))
        workers = len(cpus)
        ran = rocstats._forked_map(task, [(i,) for i in range(8 * workers + 1)], workers)
        assert ran == [ran[i % workers] for i in range(len(ran))]
        assert len({pid for pid, _ in ran}) == workers
        assert os.getpid() not in {pid for pid, _ in ran}
        assert [mask for _, mask in ran[:workers]] == [{cpu} for cpu in cpus]
        assert_no_child_left()

    @pytest.mark.bounded
    def test_results_come_back_in_task_order(self):
        # More workers than CPUs: the pins cycle through the mask.
        workers = len(os.sched_getaffinity(0)) + 3
        tasks = [(i,) for i in range(8 * workers + 1)]
        squares = rocstats._forked_map(lambda i: i * i, tasks, workers)
        assert squares == [i * i for i, in tasks]
        assert_no_child_left()

    @pytest.mark.bounded
    def test_a_child_error_keeps_its_type_and_message(self):
        def task(i):
            if i in (3, 4):
                raise DomainError(f"task {i} failed")
            return i

        # Task 3 (child 1's) fails before task 4 (child 0's), as in-process.
        with pytest.raises(DomainError) as exc:
            rocstats._forked_map(task, [(i,) for i in range(8)], 2)
        assert type(exc.value) is DomainError
        assert str(exc.value) == "task 3 failed"
        assert_no_child_left()

    @pytest.mark.bounded
    def test_a_child_that_dies_raises_a_typed_error(self):
        def task(i):
            if i == 1:
                os._exit(9)
            return i

        with pytest.raises(ChildProcessError, match="^worker [01] ended without a result, "
                           "wait status 2304$"):
            rocstats._forked_map(task, [(0,), (1,)], 2)
        assert_no_child_left()

    @pytest.mark.bounded
    @pytest.mark.parametrize("stops_by", ["exit", "raise"])
    def test_stopped_children_are_drained_one_by_one(self, stops_by):
        # Each child's first task returns more bytes than a pipe holds and its
        # second stops it. A child that raises holds a reply larger than a
        # pipe, which it can write only while the parent reads that child's
        # pipe to its end.
        calls = []

        def task():
            calls.append(None)
            if len(calls) == 1:
                return bytes(200_000)
            if stops_by == "exit":
                os._exit(9)
            raise ValueError("stop")

        with pytest.raises(ChildProcessError if stops_by == "exit" else ValueError):
            rocstats._forked_map(task, [()] * 200_000, 2)
        assert_no_child_left()

    @pytest.mark.bounded
    def test_a_study_fault_in_a_worker_reaches_the_caller(self, alarm, monkeypatch):
        def sample_stack(net, n_cases, seeds):
            raise DomainError(f"no sample for seed {seeds[0]}")

        monkeypatch.setattr(rocstats, "_sample_stack", sample_stack)
        with pytest.raises(DomainError, match="^no sample for seed 7$"):
            run_alarm_experiment(alarm.net, metrics=(MetricSpec.k2(),), jobs=2,
                                 **TestAlarmExperiment.SMALL)
        assert_no_child_left()


class TestBatchedReplicate:
    """A replicate counts its pairs in one pass and scores every metric in one
    batched call; every posterior is the float the pair's own table gives."""

    METRICS = (*DEFAULT_METRICS, MetricSpec.bdeu(1e-6), MetricSpec.bdeu(1e4))

    @pytest.mark.parametrize("n_cases", [5, 160, 10007, 20000])
    def test_batched_posteriors_equal_per_pair(self, alarm, n_cases):
        sets = enumerate_pair_sets(alarm.net, seed=42)
        pairs = [*sets.positives, *sets.negatives]
        data = forward_sample(alarm.net, n_cases, n_cases)
        arity = [v.arity for v in data.variables]
        tables = [joint_cell_counts((x, y), data).reshape(arity[x], arity[y]) for x, y in pairs]
        batched = _arc_posteriors(self.METRICS, _pair_count_tables(data, pairs))
        assert len(batched) == len(self.METRICS)
        for metric, posteriors in zip(self.METRICS, batched):
            want = [arc_posterior_from_counts(metric, table) for table in tables]
            assert posteriors == want, metric.label

    @pytest.mark.parametrize("n_cases", [5, 160, 20000])
    def test_replicate_equals_scored_pair_path(self, alarm, n_cases):
        """A replicate's area is, with ==, the area of auc_from_pairs over
        ScoredPairs of the same posteriors, and its grid row is the tpr of
        mean_roc over that one curve; the curve is the dict sweep's and the
        area the loop trapezoid's."""
        sets = enumerate_pair_sets(alarm.net, seed=42)
        keys = [*sets.positives, *sets.negatives]
        [got] = rocstats._chunk_curves(alarm.net, n_cases, n_cases, 1, sets, DEFAULT_METRICS)
        data = forward_sample(alarm.net, n_cases, n_cases)
        posteriors = _arc_posteriors(DEFAULT_METRICS, _pair_count_tables(data, keys))
        assert len(got) == len(DEFAULT_METRICS)
        for metric, (area, row), posts in zip(DEFAULT_METRICS, got, posteriors):
            pairs = [ScoredPair(x, y, i < len(sets.positives), p)
                     for i, ((x, y), p) in enumerate(zip(keys, posts))]
            pair_area, curve = auc_from_pairs(pairs)
            assert area == pair_area, metric.label
            assert row.tolist() == [t for _, t in mean_roc([curve]).points], metric.label
            assert curve.points == roc_points_reference(pairs), metric.label
            assert area == trapezoid_reference(curve.points), metric.label

    def test_one_kernel_call_per_replicate_and_per_bench_size(self, alarm, monkeypatch):
        calls = []
        kernel = scoring._dm_sums

        def counted(blocks):
            calls.append(len(blocks))
            return kernel(blocks)

        monkeypatch.setattr(scoring, "_dm_sums", counted)
        # A chunk of replicates, of one or of seven, makes one call.
        for reps in (1, 7):
            rocstats._chunk_curves(alarm.net, 20, 1, reps, enumerate_pair_sets(alarm.net),
                                   DEFAULT_METRICS)
            assert len(calls) == 1
            calls.clear()
        # Example 11: its 4 sizes, 5 metrics and 61-point alpha0 sweep in one
        # call, of one block per metric and sweep point.
        run_example(EXAMPLES[11])
        assert calls == [5 + 61]


class TestChunks:
    """A chunk of replicates is sampled as one stack, counted in one pass and
    scored in one kernel call; each of its replicates is, with ==, the
    replicate the one-replicate public calls give."""

    @pytest.mark.parametrize("n_cases", [5, 160])
    @pytest.mark.parametrize("split", [[1], [7], [25], [3, 1, 4]], ids=str)
    def test_chunk_equals_one_replicate_at_a_time(self, alarm, n_cases, split):
        net, seed = alarm.net, 11
        sets = enumerate_pair_sets(net, seed=seed)
        keys = [*sets.positives, *sets.negatives]
        labels = np.arange(len(keys)) < len(sets.positives)
        arity = [v.arity for v in net.structure.variables]
        for first, reps in zip(np.cumsum([0, *split]).tolist(), split):
            stack = _sample_stack(net, n_cases, range(seed + first, seed + first + reps))
            groups = _pair_count_tables(stack, keys, reps)
            tables = dict(kv for keys_, t in groups for kv in zip(keys_, t.tolist()))
            log_ratios = _pair_log_ratios(DEFAULT_METRICS, groups)
            curves = rocstats._chunk_curves(net, n_cases, seed + first, reps, sets, DEFAULT_METRICS)
            assert len(curves) == reps
            for r in range(reps):
                data = forward_sample(net, n_cases, seed + first + r)
                rows = stack.cases[r * n_cases : (r + 1) * n_cases]
                assert rows.tolist() == data.cases.tolist()
                own = [joint_cell_counts((x, y), data).reshape(arity[x], arity[y]) for x, y in keys]
                assert [tables[r * len(keys) + i] for i in range(len(keys))] == [
                    t.tolist() for t in own]
                for mi, metric in enumerate(DEFAULT_METRICS):
                    lrs = log_ratios[mi][r * len(keys) : (r + 1) * len(keys)]
                    assert lrs == [_pair_log_ratios([metric], [([0], t[None])])[0][0] for t in own]
                    posts = [arc_posterior_from_counts(metric, t) for t in own]
                    area, fpr, tpr = rocstats._sweep(labels, np.array(posts))
                    got_area, got_row = curves[r][mi]
                    assert got_area == area, (r, metric.label)
                    assert got_row.tolist() == rocstats._grid_row(fpr, tpr).tolist()

    def test_block_draws_continue_one_stream(self):
        """The fact the stacked sampler rests on: a generator's draws into
        consecutive blocks, by out=, are the doubles of one draw of them all."""
        blocks = np.empty((37, 20))
        rng = np.random.default_rng(5)
        for block in blocks:
            rng.random(out=block)
        assert blocks.ravel().tolist() == np.random.default_rng(5).random(37 * 20).tolist()

    @pytest.mark.parametrize(
        "n_cases, reps, chunks",
        [(5, 100, [10] * 10), (160, 23, [10, 10, 3]), (10_000, 20, [2] * 10),
         (20_000, 3, [1] * 3), (40_000, 2, [1, 1]), (0, 12, [10, 2])],
    )
    def test_chunks_are_bounded_by_cells_and_replicates(self, alarm, monkeypatch, n_cases,
                                                        reps, chunks):
        seen = []

        def chunk_curves(net, n, seed, count, pairs, metrics):
            seen.append((seed, count))
            return [[(0.5, np.ones(47))]] * count

        monkeypatch.setattr(rocstats, "_chunk_curves", chunk_curves)
        monkeypatch.setattr(rocstats, "t_confidence_interval", lambda values: (0.5, 0.5, 0.5))
        run_alarm_experiment(alarm.net, (n_cases,), reps, (MetricSpec.k2(),), seed=3, jobs=1)
        assert [count for _, count in seen] == chunks
        assert [seed for seed, _ in seen] == (3 + np.cumsum([0, *chunks[:-1]])).tolist()


class TestCsvOutput:
    def test_auc_summary_schema(self, alarm):
        result = run_alarm_experiment(
            alarm.net, metrics=(MetricSpec.bdeu(4.0),), **TestAlarmExperiment.SMALL
        )
        lines = auc_summary_csv(result.summaries).splitlines()
        assert lines[0] == "metric,alpha0,n,mean_auc,ci_low,ci_high,reps"
        assert len(lines) == 3
        assert lines[1].startswith("bdeu,4,5,")

    def test_mean_roc_schema(self, alarm):
        result = run_alarm_experiment(
            alarm.net, metrics=(MetricSpec.k2(),), **TestAlarmExperiment.SMALL
        )
        lines = mean_roc_csv(result.mean_curves).splitlines()
        assert lines[0] == "metric,n,fpr,tpr"
        assert len(lines) == 1 + 2 * 47
        assert lines[1].startswith("k2,5,0,")
