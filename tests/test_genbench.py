import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    ALPHA0_GRID,
    EXAMPLES,
    BayesNet,
    DagStructure,
    DomainError,
    MetricSpec,
    SchemaMismatch,
    Variable,
    alpha0_sweep,
    forward_sample,
    independent_joint,
    joint_cell_counts,
    noise_free_dataset,
    ratio_table_csv,
    run_example,
)
from bnscore.genbench import DEFAULT_ALPHA0S, ExampleSpec, JointTable
from bnscore.model import _pair_count_tables
from bnscore.scoring import _pair_log_ratios


class TestIndependentJoint:
    def test_product_of_marginals(self):
        j = independent_joint([(0.9, 0.1), (0.6, 0.4)], names=("X", "Y"))
        np.testing.assert_allclose(j.probs, [0.54, 0.36, 0.06, 0.04])
        assert [v.name for v in j.variables] == ["X", "Y"]

    def test_three_marginals(self):
        j = independent_joint([(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)])
        assert j.probs.size == 8
        assert j.probs.sum() == pytest.approx(1.0)
        assert [v.name for v in j.variables] == ["X1", "X2", "X3"]

    def test_marginal_must_sum_to_one(self):
        with pytest.raises(DomainError):
            independent_joint([(0.9, 0.2)])

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError, match="^marginal for 'X1' has negative entries$"):
            independent_joint([(1.1, -0.1)])

    def test_probs_are_a_read_only_copy(self):
        given = np.full(4, 0.25)
        j = JointTable(BINARY, given)
        with pytest.raises(ValueError):
            j.probs[0] = 1.0
        assert given.flags.writeable and j.probs is not given

    def test_accepted_marginals_give_an_accepted_joint(self):
        # Each marginal is within 1e-12 of summing to 1; their raw product is not.
        marginal = (0.5, 0.5 + 0.9e-12)
        j = independent_joint([marginal] * 2)
        assert abs(float(j.probs.sum()) - 1.0) <= 1e-12
        np.testing.assert_allclose(j.probs, 0.25, rtol=1e-11)

    def test_example_joints_are_the_raw_products(self):
        # Every example marginal sums to exactly 1, so rescaling leaves it as given.
        for spec in EXAMPLES.values():
            x, y = (np.array(m) for m in spec.marginals)
            assert spec.joint().probs.tolist() == np.outer(x, y).reshape(-1).tolist()


BINARY = (Variable("X", 2), Variable("Y", 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: JointTable((), [1.0]), "a joint needs at least one variable"),
        (lambda: JointTable(BINARY, [0.5, 0.5]), "2 cells for a 4-cell joint"),
        (lambda: JointTable(BINARY, [0.5, 0.5, 0.5, -0.5]),
         "joint probabilities must be non-negative"),
        (lambda: JointTable(BINARY, [0.25, 0.25, 0.25, 0.5]), "joint sums to 1.25, not 1"),
        (lambda: JointTable(BINARY, [0.5, math.nan, 0.25, 0.25]), "joint sums to nan, not 1"),
        (lambda: JointTable(BINARY, [math.inf, 0.0, 0.0, 0.0]), "joint sums to inf, not 1"),
        (lambda: independent_joint([]), "need at least one marginal"),
        (lambda: independent_joint([(0.5, 0.5)], names=("X", "Y")), "2 names for 1 marginals"),
        (lambda: independent_joint([(1.0,)], names=("X",)),
         "marginal for 'X' must be a vector of length >= 2"),
        (lambda: independent_joint([(0.9, 0.2)]), "marginal for 'X1' sums to 1.1, not 1"),
        (lambda: independent_joint([(0.5, math.nan), (0.5, 0.5)]),
         "marginal for 'X1' sums to nan, not 1"),
        (lambda: noise_free_dataset(independent_joint([(0.5, 0.5)]), -1),
         "n_cases must be non-negative, got -1"),
        # Past 2**62 a table's total could wrap the kernel's int64 sums.
        (lambda: noise_free_dataset(independent_joint([(0.5, 0.5)]), 2**62),
         "n_cases must be below 2**62, got 4611686018427387904"),
        (lambda: alpha0_sweep(EXAMPLES[11].joint(), 10**19),
         "n_cases must be below 2**62, got 10000000000000000000"),
    ],
    ids=["joint-no-variables", "joint-size", "joint-negative", "joint-sum", "joint-nan",
         "joint-inf", "no-marginals", "name-count", "marginal-length-1", "marginal-sum",
         "marginal-nan", "negative-cases", "too-many-cases", "sweep-too-many-cases"],
)
def test_invalid_joint_input_raises_domain_error(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert type(exc.value) is DomainError
    assert str(exc.value) == message


class TestNoiseFreeDataset:
    def test_extreme_marginals_round_to_sparse_counts(self):
        joint = independent_joint([(0.999, 0.001), (0.999, 0.001)])
        data = noise_free_dataset(joint, 1000)
        assert joint_cell_counts((0, 1), data).tolist() == [998, 1, 1, 0]

    def test_case_layout_follows_cell_order(self):
        joint = independent_joint([(0.999, 0.001), (0.999, 0.001)])
        data = noise_free_dataset(joint, 1000)
        assert data.cases[:998].tolist() == [[0, 0]] * 998
        assert data.cases[998].tolist() == [0, 1]
        assert data.cases[999].tolist() == [1, 0]

    def test_skewed_pair_at_one_thousand(self):
        joint = independent_joint([(0.999, 0.001), (0.55, 0.45)])
        data = noise_free_dataset(joint, 1000)
        assert joint_cell_counts((0, 1), data).tolist() == [549, 450, 1, 0]

    def test_rounds_half_away_from_zero(self):
        # uniform 2x2 at N = 10: every cell is 2.5, which rounds up to 3
        joint = independent_joint([(0.5, 0.5), (0.5, 0.5)])
        data = noise_free_dataset(joint, 10)
        assert joint_cell_counts((0, 1), data).tolist() == [3, 3, 3, 3]

    def test_zero_cases(self):
        joint = independent_joint([(0.5, 0.5)])
        assert noise_free_dataset(joint, 0).n_cases == 0

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(1, 5000),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_within_half_cell_count(self, px, py, n):
        joint = independent_joint([(px, 1.0 - px), (py, 1.0 - py)])
        data = noise_free_dataset(joint, n)
        assert abs(data.n_cases - n) <= 2  # 4 cells / 2


def constant_root_net(p=0.999):
    vs = (Variable("X", 2),)
    return BayesNet(DagStructure(vs, ((),)), (np.array([[p, 1.0 - p]]),))


class TestForwardSample:
    def test_deterministic_for_seed(self, alarm):
        a = forward_sample(alarm.net, 40, 9)
        b = forward_sample(alarm.net, 40, 9)
        c = forward_sample(alarm.net, 40, 10)
        assert a == b
        assert a != c

    def test_degenerate_cpts_sample_constant(self):
        net = constant_root_net(1.0)
        data = forward_sample(net, 100, 0)
        assert data.cases.tolist() == [[0]] * 100

    def test_root_frequency_within_binomial_bounds(self):
        p = 0.999
        n = 100000
        data = forward_sample(constant_root_net(p), n, 42)
        freq = 1.0 - data.cases.mean()
        bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= bound

    def test_empirical_joint_converges(self, alarm):
        """TV distance to the exact pair joint shrinks as N grows."""
        s = alarm.net.structure
        hr = s.index_of("HR")
        co = s.index_of("CO")

        def tv(n_cases):
            data = forward_sample(alarm.net, n_cases, 11)
            emp = joint_cell_counts((hr, co), data) / n_cases
            big = forward_sample(alarm.net, 400000, 1)
            ref = joint_cell_counts((hr, co), big) / big.n_cases
            return 0.5 * np.abs(emp - ref).sum()

        assert tv(100000) < tv(1000)

    def test_children_follow_parents(self):
        # X -> Y copying CPT: child equals parent in every sampled case
        vs = (Variable("X", 2), Variable("Y", 2))
        s = DagStructure(vs, ((), (0,)))
        net = BayesNet(
            s, (np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        )
        data = forward_sample(net, 500, 21)
        assert (data.cases[:, 0] == data.cases[:, 1]).all()

    def test_zero_cases(self, alarm):
        assert forward_sample(alarm.net, 0, 1).n_cases == 0

    @pytest.mark.parametrize("n_cases, seed", [(-1, 5), (5, -1)])
    def test_negative_inputs_rejected(self, alarm, n_cases, seed):
        with pytest.raises(DomainError, match="must be non-negative"):
            forward_sample(alarm.net, n_cases, seed)

    def test_sample_is_read_only_column_major_uint8(self, alarm):
        cases = forward_sample(alarm.net, 50, 4).cases
        assert cases.dtype == np.uint8 and cases.shape == (50, 37)
        assert cases.flags.f_contiguous and cases.flags.owndata
        assert not cases.flags.writeable


class TestExampleRegistry:
    def test_eleven_examples(self):
        assert sorted(EXAMPLES) == list(range(1, 12))

    def test_marginal_table(self):
        expected = {
            1: ((1.0, 0.0), (1.0, 0.0)),
            2: ((0.999, 0.001), (0.999, 0.001)),
            5: ((0.5, 0.5), (0.999, 0.001)),
            9: ((0.9995, 0.0005), (0.5, 0.5)),
            10: ((0.999, 0.001), (0.55, 0.45)),
            11: ((0.999, 0.001), (0.55, 0.45)),
        }
        for k, pair in expected.items():
            got = EXAMPLES[k].marginals
            np.testing.assert_allclose(got, pair, rtol=0, atol=1e-14)

    def test_sizes(self):
        assert EXAMPLES[1].sizes == (10, 1000, 100000)
        for k in range(2, 10):
            assert EXAMPLES[k].sizes == (1000,)
        assert EXAMPLES[10].sizes == (100, 500, 1000, 2000)
        assert EXAMPLES[11].sizes == EXAMPLES[10].sizes

    def test_alpha0_grid(self):
        assert len(ALPHA0_GRID) == 61
        assert ALPHA0_GRID[0] == pytest.approx(1e-2, rel=1e-12)
        assert ALPHA0_GRID[-1] == pytest.approx(1e4, rel=1e-12)
        steps = np.diff(np.log10(np.array(ALPHA0_GRID)))
        np.testing.assert_allclose(steps, 0.1, rtol=1e-9)
        assert EXAMPLES[11].sweep == ALPHA0_GRID
        assert DEFAULT_ALPHA0S == (0.01, 1.0, 4.0)


class TestRunExample:
    def test_example_one_pins_exact_ratios(self):
        rows = run_example(EXAMPLES[1])
        by = {(r.metric, r.alpha0, r.n): r for r in rows}
        assert by[("k2", None, 10)].ratio == pytest.approx(1.0, abs=1e-12)
        assert by[("gu", None, 10)].ratio == pytest.approx(121.0 / 286.0, rel=1e-9)
        assert by[("bdeu", 4.0, 10)].ratio == pytest.approx(676.0 / 286.0, rel=1e-9)
        for n in (10, 1000, 100000):
            assert by[("k2", None, n)].ratio == pytest.approx(1.0, abs=1e-12)

    def test_example_one_bdeu_grows_with_n(self):
        rows = run_example(EXAMPLES[1])
        for a0 in DEFAULT_ALPHA0S:
            series = [r.log_ratio for r in rows if r.metric == "bdeu" and r.alpha0 == a0]
            assert all(r > 0.0 for r in series)
            assert series == sorted(series)

    def test_example_ten_all_metrics_decay_with_n(self):
        # K2 ties exactly at the two smallest sizes (the rare X state rounds
        # to zero cases, so the pair degenerates to a constant column), hence
        # non-increasing stepwise plus a strict end-to-end drop.
        rows = run_example(EXAMPLES[10])
        keys = [("bdeu", 0.01), ("bdeu", 1.0), ("bdeu", 4.0), ("k2", None), ("gu", None)]
        for metric, a0 in keys:
            series = [
                r.log_ratio
                for r in sorted(
                    (r for r in rows if r.metric == metric and r.alpha0 == a0),
                    key=lambda r: r.n,
                )
            ]
            assert len(series) == 4
            assert all(b <= a for a, b in zip(series, series[1:]))
            assert series[-1] < series[0]

    def test_sweep_rows_present_for_example_eleven(self):
        rows = run_example(EXAMPLES[11])
        sweep = [r for r in rows if r.metric == "bdeu_sweep" and r.n == 1000]
        assert len(sweep) == 61
        maxima = [r for r in rows if r.metric == "bdeu_max"]
        assert [r.n for r in maxima] == [100, 500, 1000, 2000]
        best = next(r for r in maxima if r.n == 1000)
        assert best.ratio == pytest.approx(max(r.ratio for r in sweep), rel=1e-12)


class TestAlphaSweep:
    def test_single_case_dataset_flat_at_one(self):
        joint = EXAMPLES[1].joint()
        sweep = alpha0_sweep(joint, 1, ALPHA0_GRID)
        for _, ratio, log_ratio in sweep.points:
            assert ratio == pytest.approx(1.0, abs=1e-10)
            assert log_ratio == pytest.approx(0.0, abs=1e-10)

    def test_grid_must_ascend(self):
        joint = EXAMPLES[1].joint()
        with pytest.raises(DomainError):
            alpha0_sweep(joint, 10, (1.0, 1.0))
        with pytest.raises(DomainError):
            alpha0_sweep(joint, 10, ())

    def test_interior_maximum_on_skewed_pair(self):
        sweep = alpha0_sweep(EXAMPLES[11].joint(), 1000, ALPHA0_GRID)
        assert ALPHA0_GRID[0] < sweep.argmax_alpha0 < ALPHA0_GRID[-1]
        assert sweep.max_ratio == pytest.approx(1.9, abs=0.3)


def dataset_log_ratios(metrics, joint, n):
    """Log ratios from counting a noise-free dataset's first two variables."""
    return _pair_log_ratios(metrics, _pair_count_tables(noise_free_dataset(joint, n), [(0, 1)]))


class TestNoiseFreeTables:
    """run_example and alpha0_sweep score the noise-free table directly:
    the same floats as counting a noise-free dataset, at any N."""

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_ratios_equal_the_dataset_path(self, example):
        spec = EXAMPLES[example]
        joint = spec.joint()
        rows = run_example(spec)
        metrics = [*map(MetricSpec.bdeu, spec.alpha0_values), MetricSpec.k2(), MetricSpec.gu()]
        for n in spec.sizes:
            got = [r.log_ratio for r in rows if r.n == n and r.metric in ("bdeu", "k2", "gu")]
            assert got == [lr for (lr,) in dataset_log_ratios(metrics, joint, n)]
            if spec.sweep is not None:
                sweep = alpha0_sweep(joint, n, spec.sweep)
                want = dataset_log_ratios([MetricSpec.bdeu(a0) for a0 in spec.sweep], joint, n)
                assert [p[2] for p in sweep.points] == [lr for (lr,) in want]

    def test_further_variables_summed_out(self):
        marginals = ((0.7, 0.3), (0.2, 0.5, 0.3), (0.4, 0.6))
        rows = run_example(ExampleSpec(0, marginals, (37,), (1.0,)))
        metrics = [MetricSpec.bdeu(1.0), MetricSpec.k2(), MetricSpec.gu()]
        want = dataset_log_ratios(metrics, independent_joint(marginals), 37)
        assert [r.log_ratio for r in rows] == [lr for (lr,) in want]

    def test_finite_at_any_n(self):
        n = 10**12
        sweep = alpha0_sweep(EXAMPLES[11].joint(), n)
        assert all(math.isfinite(lr) for _, _, lr in sweep.points)
        rows = run_example(ExampleSpec(11, EXAMPLES[11].marginals, (n,)))
        assert len(rows) == 5 and all(math.isfinite(r.log_ratio) for r in rows)

    def test_one_variable_joint_rejected(self):
        joint = independent_joint([(0.5, 0.5)])
        with pytest.raises(SchemaMismatch, match="component index 1 out of range 0..0"):
            alpha0_sweep(joint, 10)
        with pytest.raises(SchemaMismatch, match="component index 1 out of range 0..0"):
            run_example(ExampleSpec(0, ((0.5, 0.5),), (10,)))


class TestRatioTableCsv:
    def test_header_and_determinism(self):
        rows = run_example(EXAMPLES[2])
        text = ratio_table_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "example,metric,alpha0,n,ratio,log10_ratio"
        assert len(lines) == 1 + len(rows)
        assert text == ratio_table_csv(run_example(EXAMPLES[2]))

    def test_alpha0_blank_for_parameterless_metrics(self):
        text = ratio_table_csv(run_example(EXAMPLES[2]))
        k2_lines = [l for l in text.splitlines() if l.startswith("2,k2")]
        assert k2_lines and all(l.split(",")[2] == "" for l in k2_lines)
