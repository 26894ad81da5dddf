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
    Dataset,
    DomainError,
    MetricSpec,
    Variable,
    forward_sample,
    joint_cell_counts,
    ratio_table_csv,
    run_example,
)
from bnscore.genbench import DEFAULT_ALPHA0S, ExampleSpec, _noise_free_tables
from bnscore.model import _pair_count_tables
from bnscore.scoring import _pair_log_ratios

from .oracles import noise_free_cases

HALF = (0.5, 0.5)


def oracle_dataset(marginals, n):
    """The oracle's noise-free cases of two marginals, as a Dataset over X and Y."""
    variables = tuple(Variable(name, len(m)) for name, m in zip("XY", marginals))
    return Dataset(variables, noise_free_cases(marginals, n))


def dataset_log_ratios(metrics, marginals, n):
    """Each metric's log ratio from counting the oracle's noise-free dataset."""
    data = oracle_dataset(marginals, n)
    return [lr for (lr,) in _pair_log_ratios(metrics, _pair_count_tables(data, [(0, 1)]))]


class TestIndependentJoint:
    """An example's table is the product of its two marginals, X by Y."""

    def test_product_of_marginals(self):
        sizes, tables = _noise_free_tables(ExampleSpec(0, ((0.9, 0.1), (0.5, 0.3, 0.2)), (100,)))
        assert sizes == [100]
        assert tables.tolist() == [[[45, 27, 18], [5, 3, 2]]]

    def test_three_marginals(self):
        with pytest.raises(DomainError, match="^an example needs 2 marginals, got 3$"):
            run_example(ExampleSpec(0, (HALF,) * 3, (10,)))

    def test_marginal_must_sum_to_one(self):
        with pytest.raises(DomainError):
            run_example(ExampleSpec(0, ((0.9, 0.2), HALF), (10,)))

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError, match="^marginal for 'X' has negative entries$"):
            run_example(ExampleSpec(0, ((1.1, -0.1), HALF), (10,)))

    def test_accepted_marginals_give_an_accepted_joint(self):
        # Each marginal is within 1e-12 of summing to 1, and is divided by its sum.
        marginal = (0.5, 0.5 + 0.9e-12)
        _, tables = _noise_free_tables(ExampleSpec(0, (marginal, marginal), (1000,)))
        assert tables.tolist() == [[[250, 250], [250, 250]]]

    def test_example_joints_are_the_raw_products(self):
        # Every example marginal sums to exactly 1, so rescaling leaves it as given.
        for spec in EXAMPLES.values():
            x, y = (np.array(m) for m in spec.marginals)
            sizes, tables = _noise_free_tables(spec)
            assert sizes == list(spec.sizes)
            want = [np.floor(np.outer(x, y) * n + 0.5).tolist() for n in spec.sizes]
            assert tables.tolist() == want


def run_spec(marginals=(HALF, HALF), sizes=(10,), **kw):
    """A call of run_example on ExampleSpec(0, marginals, sizes, **kw)."""
    return lambda: run_example(ExampleSpec(0, marginals, sizes, **kw))


@pytest.mark.parametrize(
    "build, message",
    [
        (run_spec((HALF, (1.5, -0.5))), "marginal for 'Y' has negative entries"),
        (run_spec((HALF, (0.25, 1.0))), "marginal for 'Y' sums to 1.25, not 1"),
        (run_spec((HALF, (0.5, math.nan))), "marginal for 'Y' sums to nan, not 1"),
        (run_spec((HALF, (math.inf, 0.0))), "marginal for 'Y' sums to inf, not 1"),
        (run_spec(()), "an example needs 2 marginals, got 0"),
        (run_spec(((1.0,), HALF)), "marginal for 'X' must be a vector of length >= 2"),
        (run_spec(((0.9, 0.2), HALF)), "marginal for 'X' sums to 1.1, not 1"),
        (run_spec(((0.5, math.nan), HALF)), "marginal for 'X' sums to nan, not 1"),
        (run_spec(sizes=(-1,)), "n_cases must be non-negative, got -1"),
        # Past 2**62 a table's total could wrap the kernel's int64 sums.
        (run_spec(sizes=(2**62,)), "n_cases must be below 2**62, got 4611686018427387904"),
        (run_spec(EXAMPLES[11].marginals, (10**19,), sweep=ALPHA0_GRID),
         "n_cases must be below 2**62, got 10000000000000000000"),
        (run_spec(sizes=(10.5,)), "n_cases must be an integer, got 10.5"),
        (run_spec(sizes=(True,)), "n_cases must be an integer, got True"),
    ],
    ids=["joint-negative", "joint-sum", "joint-nan", "joint-inf", "no-marginals",
         "marginal-length-1", "marginal-sum", "marginal-nan", "negative-cases",
         "too-many-cases", "sweep-too-many-cases", "fractional-size", "bool-size"],
)
def test_invalid_joint_input_raises_domain_error(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert type(exc.value) is DomainError
    assert str(exc.value) == message


class TestNoiseFreeDataset:
    """The oracle's noise-free cases, the reference run_example is judged by."""

    def test_extreme_marginals_round_to_sparse_counts(self):
        data = oracle_dataset(((0.999, 0.001), (0.999, 0.001)), 1000)
        assert joint_cell_counts((0, 1), data).tolist() == [998, 1, 1, 0]

    def test_case_layout_follows_cell_order(self):
        cases = noise_free_cases(((0.999, 0.001), (0.999, 0.001)), 1000)
        assert cases == [(0, 0)] * 998 + [(0, 1), (1, 0)]

    def test_skewed_pair_at_one_thousand(self):
        data = oracle_dataset(((0.999, 0.001), (0.55, 0.45)), 1000)
        assert joint_cell_counts((0, 1), data).tolist() == [549, 450, 1, 0]

    def test_rounds_half_away_from_zero(self):
        # uniform 2x2 at N = 10: every cell is 2.5, which rounds up to 3
        data = oracle_dataset((HALF, HALF), 10)
        assert joint_cell_counts((0, 1), data).tolist() == [3, 3, 3, 3]

    def test_zero_cases(self):
        assert noise_free_cases((HALF, HALF), 0) == []

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(1, 5000),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_within_half_cell_count(self, px, py, n):
        marginals = ((px, 1.0 - px), (py, 1.0 - py))
        assert abs(len(noise_free_cases(marginals, n)) - n) <= 2  # 4 cells / 2
        rows = run_example(ExampleSpec(0, marginals, (n,)))
        metrics = [*map(MetricSpec.bdeu, DEFAULT_ALPHA0S), MetricSpec.k2(), MetricSpec.gu()]
        assert [r.log_ratio for r in rows] == dataset_log_ratios(metrics, marginals, n)


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

    @pytest.mark.parametrize(
        "n_cases, seed, message",
        [(2.5, 1, "2.5 and 1"), (True, 1, "True and 1"), ("5", 1, "'5' and 1"),
         (5, 1.5, "5 and 1.5"), (5, True, "5 and True")],
        ids=["float-count", "bool-count", "str-count", "float-seed", "bool-seed"],
    )
    def test_non_integer_inputs_rejected(self, alarm, n_cases, seed, message):
        # A bool is refused: operator.index would sample True cases as 1.
        with pytest.raises(DomainError) as exc:
            forward_sample(alarm.net, n_cases, seed)
        assert str(exc.value) == f"n_cases and seed must be integers, got {message}"

    def test_numpy_integer_inputs_accepted(self, alarm):
        data = forward_sample(alarm.net, np.int64(30), np.uint8(9))
        assert data == forward_sample(alarm.net, 30, 9)

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
        assert best.ratio == max(r.ratio for r in sweep)
        assert best.log_ratio == max(r.log_ratio for r in sweep)

    def test_numpy_integer_sizes_are_taken_as_ints(self):
        rows = run_example(ExampleSpec(0, (HALF, HALF), (np.int64(10), np.uint8(3))))
        assert [type(r.n) for r in rows] == [int] * 10
        assert rows == run_example(ExampleSpec(0, (HALF, HALF), (10, 3)))


def sweep_rows(spec, n):
    """An example's 'bdeu_sweep' rows at size n, and its 'bdeu_max' row."""
    rows = [r for r in run_example(spec) if r.n == n]
    return [r for r in rows if r.metric == "bdeu_sweep"], rows[-1]


class TestAlphaSweep:
    def test_single_case_dataset_flat_at_one(self):
        sweep, _ = sweep_rows(ExampleSpec(1, EXAMPLES[1].marginals, (1,), sweep=ALPHA0_GRID), 1)
        assert len(sweep) == 61
        for row in sweep:
            assert row.ratio == pytest.approx(1.0, abs=1e-10)
            assert row.log_ratio == pytest.approx(0.0, abs=1e-10)

    def test_grid_must_ascend(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            run_example(ExampleSpec(1, EXAMPLES[1].marginals, (10,), sweep=(1.0, 1.0)))
        with pytest.raises(DomainError, match="non-empty"):
            run_example(ExampleSpec(1, EXAMPLES[1].marginals, (10,), sweep=()))

    def test_interior_maximum_on_skewed_pair(self):
        _, best = sweep_rows(EXAMPLES[11], 1000)
        assert best.metric == "bdeu_max"
        assert ALPHA0_GRID[0] < best.alpha0 < ALPHA0_GRID[-1]
        assert best.ratio == pytest.approx(1.9, abs=0.3)


class TestNoiseFreeTables:
    """run_example scores the noise-free tables directly: the same floats as
    counting the oracle's noise-free dataset, at every size and sweep point."""

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_ratios_equal_the_dataset_path(self, example):
        spec = EXAMPLES[example]
        rows = run_example(spec)
        metrics = [*map(MetricSpec.bdeu, spec.alpha0_values), MetricSpec.k2(), MetricSpec.gu(),
                   *map(MetricSpec.bdeu, spec.sweep or ())]
        for n in spec.sizes:
            got = [r.log_ratio for r in rows if r.n == n and r.metric != "bdeu_max"]
            assert got == dataset_log_ratios(metrics, spec.marginals, n)

    def test_one_variable_joint_rejected(self):
        with pytest.raises(DomainError, match="^an example needs 2 marginals, got 1$"):
            run_example(ExampleSpec(0, (HALF,), (10,)))

    def test_finite_at_any_n(self):
        n = 10**12
        rows = run_example(ExampleSpec(11, EXAMPLES[11].marginals, (n,), sweep=ALPHA0_GRID))
        assert len(rows) == 5 + 61 + 1 and all(math.isfinite(r.log_ratio) for r in rows)


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
