import math
import sys
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bnscore import (
    DagStructure,
    Dataset,
    DomainError,
    MetricSpec,
    ModelError,
    Variable,
    arc_posterior,
    log_score,
    structure_ratio,
)
from bnscore.genbench import ALPHA0_GRID, DEFAULT_ALPHA0S
from bnscore.scoring import (
    _LGAM,
    _LGAM_MEMO_SIZE,
    _lgam,
    arc_posterior_from_counts,
    pair_structures,
)

from .helpers import make_pair_dataset
from .oracles import (
    bdeu_exact,
    bdeu_ratio_constant_pair,
    ddm_exact,
    gu_exact,
    gu_ratio_constant_pair,
    k2_exact,
    mc_marginal_saturated,
    pair_cases,
    rising,
)

count_tables = st.lists(
    st.lists(st.integers(0, 25), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
).map(np.array)


ALL_METRICS = (
    MetricSpec.bdeu(0.01),
    MetricSpec.bdeu(1.0),
    MetricSpec.bdeu(4.0),
    MetricSpec.k2(),
    MetricSpec.gu(),
)

sparse_counts = st.one_of(st.just(0), st.integers(0, 12))


@st.composite
def pair_tables(draw, counts=sparse_counts):
    """A 2-4 x 2-4 pair count table, often with empty cells."""
    g, h = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return np.array(draw(st.lists(counts, min_size=g * h, max_size=g * h))).reshape(g, h)


@st.composite
def one_row_tables(draw):
    """A 2-4 x 2-4 table whose only non-empty row is at a drawn index."""
    g, h = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    table = np.zeros((g, h), dtype=np.int64)
    table[draw(st.integers(0, g - 1))] = draw(
        st.lists(sparse_counts, min_size=h, max_size=h)
    )
    return table


def log_of_fraction(f: Fraction) -> float:
    return math.log(f.numerator) - math.log(f.denominator)


class TestOneFamilyKernel:
    """A lone variable's score is one Dirichlet-multinomial term: with r
    states and pseudo-count a per state, lnG(r a)/lnG(r a + N) times the
    product of lnG(a + N_k)/lnG(a)."""

    @staticmethod
    def score(metric, counts):
        v = Variable("X", len(counts))
        cases = [(k,) for k, c in enumerate(counts) for _ in range(c)]
        return log_score(metric, DagStructure((v,), ((),)), Dataset((v,), cases))

    def test_zero_counts_give_zero(self):
        for metric in ALL_METRICS:
            assert self.score(metric, [0, 0, 0]) == 0.0, metric.label

    def test_one_case_gives_log_one_over_r(self):
        for r, metric in product((2, 3, 4), ALL_METRICS):
            got = self.score(metric, [1] + [0] * (r - 1))
            assert got == pytest.approx(math.log(1.0 / r), rel=1e-14), metric.label

    @given(st.lists(st.integers(0, 40), min_size=2, max_size=5), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_random_counts_match_oracle(self, counts, a_quarters):
        r = len(counts)
        a = Fraction(a_quarters, 4)  # dyadic, so alpha0 / r recovers it exactly
        for metric, alpha in ((MetricSpec.k2(), Fraction(1)), (MetricSpec.bdeu(a * r), a)):
            assert self.score(metric, counts) == pytest.approx(
                log_of_fraction(ddm_exact(counts, [alpha] * r)), rel=1e-10, abs=1e-12
            ), metric.label


def assert_same_bits_as_gammaln(xs):
    xs = [float(x) for x in xs]
    want = [x.hex() for x in gammaln(np.array(xs)).tolist()]
    assert [_lgam(x).hex() for x in xs] == want
    assert [_LGAM(x).hex() for x in xs] == want


class TestLogGammaPort:
    """The kernel's stdlib lnG gives scipy.special.gammaln's float, bit for
    bit, so no score moves when scipy is not imported."""

    def test_integers(self):
        assert_same_bits_as_gammaln(range(1, 200_001))

    @given(st.lists(st.floats(min_value=5e-324, max_value=1e308), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_positive_floats(self, xs):
        assert_same_bits_as_gammaln(xs)

    def test_log_uniform_floats(self):
        rng = np.random.default_rng(2)
        assert_same_bits_as_gammaln(np.exp(rng.uniform(math.log(5e-324), math.log(1e308), 50_000)))
        assert_same_bits_as_gammaln(rng.uniform(0.0, 13.0, 50_000))

    def test_bdeu_arguments(self):
        """Cell and row arguments alpha0/(q r) + n and alpha0/q + n of every
        alpha0 the CLI and the benchmarks use, over ALARM-sized tables."""
        alpha0s = {*DEFAULT_ALPHA0S, *ALPHA0_GRID}
        qs = (1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 27, 36, 64)
        divisors = {q * r for q in qs for r in (1, 2, 3, 4)}
        bases = {a0 / d for a0 in alpha0s for d in divisors}
        assert_same_bits_as_gammaln([b + n for b in bases for n in range(200)])

    def test_domain_edges(self):
        maxlgm = 2.556348e305
        edges = [
            0.0, 5e-324, 2.5e-321, sys.float_info.min, 1e-300,
            math.nextafter(maxlgm, 0.0), maxlgm, math.nextafter(maxlgm, math.inf),
            1e308, sys.float_info.max, math.inf,
        ]
        # The branch points of the algorithm and their neighbours.
        for x in (1.0, 2.0, 3.0, 13.0, 1000.0, 1e8):
            edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        assert_same_bits_as_gammaln(edges)

    def test_memo_is_bounded(self):
        """Past its size the memo drops arguments instead of growing, and
        what it returns stays lnG's float."""
        xs = [math.pi * 1e5 + i for i in range(_LGAM_MEMO_SIZE + 100)]
        misses = _LGAM.cache_info().misses
        assert [_LGAM(x) for x in xs] == [_lgam(x) for x in xs]
        info = _LGAM.cache_info()
        assert info.misses - misses == len(xs)
        assert info.currsize <= _LGAM_MEMO_SIZE


class TestScoresAgainstExactOracle:
    """Each scorer must reproduce exact rational arithmetic on small data."""

    def pair(self, table):
        data = make_pair_dataset(table)
        dep, indep = pair_structures(*data.variables)
        return data, dep, indep

    @pytest.mark.parametrize(
        "table",
        [
            [[10, 0], [0, 0]],
            [[3, 2], [1, 4]],
            [[0, 0], [0, 7]],
            [[5, 5], [5, 5]],
        ],
    )
    def test_k2_pair(self, table):
        data, dep, indep = self.pair(table)
        cases = pair_cases(table)
        assert log_score(MetricSpec.k2(), dep, data) == pytest.approx(
            log_of_fraction(k2_exact([2, 2], [(), (0,)], cases)), rel=1e-12
        )
        assert log_score(MetricSpec.k2(), indep, data) == pytest.approx(
            log_of_fraction(k2_exact([2, 2], [(), ()], cases)), rel=1e-12
        )

    @pytest.mark.parametrize("alpha0", [Fraction(1, 100), Fraction(1), Fraction(4)])
    def test_bdeu_pair(self, alpha0):
        table = [[6, 1], [2, 3]]
        data, dep, indep = self.pair(table)
        cases = pair_cases(table)
        got = log_score(MetricSpec.bdeu(float(alpha0)), dep, data)
        assert got == pytest.approx(
            log_of_fraction(bdeu_exact([2, 2], [(), (0,)], cases, alpha0)), rel=1e-12
        )
        got = log_score(MetricSpec.bdeu(float(alpha0)), indep, data)
        assert got == pytest.approx(
            log_of_fraction(bdeu_exact([2, 2], [(), ()], cases, alpha0)), rel=1e-12
        )

    def test_gu_pair(self):
        table = [[6, 1], [2, 3]]
        data, dep, indep = self.pair(table)
        cases = pair_cases(table)
        assert log_score(MetricSpec.gu(), dep, data) == pytest.approx(
            log_of_fraction(gu_exact([2, 2], [(0, 1)], cases)), rel=1e-12
        )
        assert log_score(MetricSpec.gu(), indep, data) == pytest.approx(
            log_of_fraction(gu_exact([2, 2], [(0,), (1,)], cases)), rel=1e-12
        )

    def test_three_variable_chain_k2(self):
        rng = np.random.default_rng(5)
        vs = tuple(Variable(n, 2) for n in "ABC")
        s = DagStructure(vs, ((), (0,), (1,)))
        cases = rng.integers(0, 2, size=(20, 3))
        data = Dataset(vs, cases)
        exact = k2_exact([2, 2, 2], [(), (0,), (1,)], [tuple(c) for c in cases])
        assert log_score(MetricSpec.k2(), s, data) == pytest.approx(
            log_of_fraction(exact), rel=1e-12
        )

    def test_scores_are_log_probabilities(self):
        data, dep, indep = self.pair([[3, 1], [2, 4]])
        for metric in (MetricSpec.k2(), MetricSpec.bdeu(4.0), MetricSpec.gu()):
            for s in (dep, indep):
                assert log_score(metric, s, data) < 0.0

    def test_empty_data_scores_zero(self):
        data, dep, indep = self.pair([[0, 0], [0, 0]])
        for metric in (MetricSpec.k2(), MetricSpec.bdeu(1.0), MetricSpec.gu()):
            assert log_score(metric, dep, data) == pytest.approx(0.0, abs=1e-14)


class TestStructuralProperties:
    def test_disconnected_components_add(self):
        rng = np.random.default_rng(11)
        vs = tuple(Variable(n, 2) for n in "ABCD")
        s_all = DagStructure(vs, ((), (0,), (), (2,)))
        cases = rng.integers(0, 2, size=(25, 4))
        data = Dataset(vs, cases)
        left = Dataset(vs[:2], cases[:, :2])
        right = Dataset(vs[2:], cases[:, 2:])
        s_left = DagStructure(vs[:2], ((), (0,)))
        s_right = DagStructure(vs[2:], ((), (0,)))
        for metric in (MetricSpec.k2(), MetricSpec.bdeu(2.0), MetricSpec.gu()):
            whole = log_score(metric, s_all, data)
            parts = log_score(metric, s_left, left) + log_score(metric, s_right, right)
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_gu_refuses_chains(self):
        vs = tuple(Variable(n, 2) for n in "ABC")
        chain = DagStructure(vs, ((), (0,), (1,)))
        data = Dataset(vs, [(0, 0, 0)] * 4)
        with pytest.raises(DomainError) as exc:
            log_score(MetricSpec.gu(), chain, data)
        assert str(exc.value) == (
            "skeleton is not a union of cliques: 'A' and 'C' are connected but not adjacent"
        )

    def test_gu_accepts_saturated_triangle(self):
        vs = tuple(Variable(n, 2) for n in "ABC")
        tri = DagStructure(vs, ((), (0,), (0, 1)))
        data = Dataset(vs, [(0, 0, 0), (1, 1, 0), (0, 1, 1)])
        cases = [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
        assert log_score(MetricSpec.gu(), tri, data) == pytest.approx(
            log_of_fraction(gu_exact([2, 2, 2], [(0, 1, 2)], cases)), rel=1e-12
        )

    @given(count_tables)
    @settings(max_examples=60, deadline=None)
    def test_likelihood_equivalence_on_pairs(self, table):
        data = make_pair_dataset(table)
        vs = data.variables
        fwd = DagStructure(vs, ((), (0,)))
        rev = DagStructure(vs, ((1,), ()))
        for alpha0 in (0.01, 1.0, 4.0):
            assert log_score(MetricSpec.bdeu(alpha0), fwd, data) == pytest.approx(
                log_score(MetricSpec.bdeu(alpha0), rev, data), abs=1e-10
            )
        assert log_score(MetricSpec.gu(), fwd, data) == pytest.approx(
            log_score(MetricSpec.gu(), rev, data), abs=1e-10
        )

    @given(count_tables)
    @settings(max_examples=60, deadline=None)
    def test_gu_coincides_with_matched_bdeu_on_binary_pairs(self, table):
        data = make_pair_dataset(table)
        dep, indep = pair_structures(*data.variables)
        assert log_score(MetricSpec.gu(), dep, data) == pytest.approx(
            log_score(MetricSpec.bdeu(4.0), dep, data), abs=1e-10
        )
        assert log_score(MetricSpec.gu(), indep, data) == pytest.approx(
            log_score(MetricSpec.bdeu(2.0), indep, data), abs=1e-10
        )

    @pytest.mark.bounded
    def test_saturated_dag_wins_bdeu_on_constant_data(self):
        # exhaustive check over all 25 DAGs on three binary variables
        vs = tuple(Variable(n, 2) for n in "ABC")
        data = Dataset(vs, [(0, 0, 0)] * 10)
        arcs = list(combinations(range(3), 2))  # undirected slots
        scores = {}
        for mask in product((0, 1, 2), repeat=3):  # absent / fwd / rev
            parents = [[], [], []]
            for (a, b), m in zip(arcs, mask):
                if m == 1:
                    parents[b].append(a)
                elif m == 2:
                    parents[a].append(b)
            try:
                s = DagStructure(vs, tuple(tuple(p) for p in parents))
            except ValueError:
                continue
            scores[mask] = log_score(MetricSpec.bdeu(4.0), s, data)
        assert len(scores) == 25
        saturated = [m for m in scores if 0 not in m]
        best_saturated = max(scores[m] for m in saturated)
        np.testing.assert_allclose(
            [scores[m] for m in saturated], best_saturated, rtol=1e-12
        )
        for m, value in scores.items():
            if 0 in m:
                assert value < best_saturated - 1e-9


class TestNormalization:
    """exp(score) must be a probability over all datasets of a fixed size."""

    @pytest.mark.parametrize("n_cases", [1, 2, 3])
    def test_pair_scores_normalise(self, n_cases):
        vs = (Variable("X", 2), Variable("Y", 2))
        dep, indep = pair_structures(*vs)
        metrics = (
            MetricSpec.k2(),
            MetricSpec.bdeu(0.01),
            MetricSpec.bdeu(1.0),
            MetricSpec.bdeu(4.0),
            MetricSpec.gu(),
        )
        for metric in metrics:
            for structure in (dep, indep):
                total = 0.0
                for seq in product(range(4), repeat=n_cases):
                    cases = [(c // 2, c % 2) for c in seq]
                    total += math.exp(
                        log_score(metric, structure, Dataset(vs, cases))
                    )
                assert total == pytest.approx(1.0, abs=1e-10)


class TestRatiosAndPosteriors:
    def test_ratio_matches_exact_example(self):
        data = make_pair_dataset([[10, 0], [0, 0]])
        dep, indep = pair_structures(*data.variables)
        r = structure_ratio(MetricSpec.bdeu(4.0), dep, indep, data)
        assert r.ratio == pytest.approx(676.0 / 286.0, rel=1e-12)
        assert math.exp(r.log_ratio) == pytest.approx(r.ratio, rel=1e-12)
        assert r.log10_ratio == pytest.approx(math.log10(676.0 / 286.0), rel=1e-12)

    def test_huge_log_ratio_maps_to_inf(self):
        from bnscore.scoring import RatioResult, _safe_exp

        assert _safe_exp(1000.0) == math.inf
        assert RatioResult(math.inf, 1000.0).log10_ratio == pytest.approx(434.29, rel=1e-3)

    def test_arc_posterior_matches_ratio(self):
        table = [[20, 5], [3, 12]]
        data = make_pair_dataset(table)
        dep, indep = pair_structures(*data.variables)
        for metric in (MetricSpec.k2(), MetricSpec.bdeu(4.0), MetricSpec.gu()):
            r = structure_ratio(metric, dep, indep, data)
            p = arc_posterior(metric, 0, 1, data)
            assert p == pytest.approx(r.ratio / (1.0 + r.ratio), rel=1e-12)
            assert 0.0 < p < 1.0

    def test_arc_posterior_projects_wider_datasets(self):
        rng = np.random.default_rng(3)
        vs = tuple(Variable(n, 2) for n in "ABC")
        cases = rng.integers(0, 2, size=(40, 3))
        data = Dataset(vs, cases)
        pair = Dataset((vs[2], vs[0]), cases[:, [2, 0]])
        direct = arc_posterior(MetricSpec.k2(), 0, 1, pair)
        assert arc_posterior(MetricSpec.k2(), 2, 0, data) == pytest.approx(
            direct, rel=1e-14
        )

    @given(count_tables)
    @settings(max_examples=40, deadline=None)
    def test_counts_fast_path_agrees(self, table):
        data = make_pair_dataset(table)
        for metric in (MetricSpec.k2(), MetricSpec.bdeu(0.01), MetricSpec.gu()):
            fast = arc_posterior_from_counts(metric, table)
            slow = arc_posterior(metric, 0, 1, data)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)

    @given(pair_tables(st.integers(0, 6)))
    @settings(max_examples=60, deadline=None)
    def test_counts_path_matches_exact_oracle(self, table):
        g, h = table.shape
        cases = pair_cases(table)
        dep, indep = ((), (0,)), ((), ())
        exact = {
            "k2": [k2_exact((g, h), s, cases) for s in (dep, indep)],
            "gu": [gu_exact((g, h), c, cases) for c in ([(0, 1)], [(0,), (1,)])],
        }
        for metric in ALL_METRICS:
            if metric.kind == "bdeu":
                a0 = Fraction(metric.alpha0)
                s_dep, s_indep = (bdeu_exact((g, h), s, cases, a0) for s in (dep, indep))
            else:
                s_dep, s_indep = exact[metric.kind]
            assert arc_posterior_from_counts(metric, table) == pytest.approx(
                float(s_dep / (s_dep + s_indep)), rel=1e-12
            ), metric.label

    @pytest.mark.parametrize(
        "counts",
        [
            [[1, -2], [3, 4]],
            [1, 2, 3],
            [[[1, 2], [3, 4]]],
            [[1.0, 2.0], [3.0, 4.0]],
            np.zeros((0, 2), dtype=np.int64),
            np.array([[2**62, 2**62], [0, 0]], dtype=np.uint64),
        ],
        ids=["negative", "1-D", "3-D", "float", "empty", "total-past-int64"],
    )
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.label)
    # A total past int64 wraps negative, where lnG's recurrence cannot advance.
    @pytest.mark.bounded
    def test_counts_path_rejects_bad_tables(self, metric, counts):
        with pytest.raises(DomainError):
            arc_posterior_from_counts(metric, counts)

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.label)
    def test_schema_mismatch_names_both_lists(self, metric):
        data = make_pair_dataset([[1, 1], [1, 1]])
        other = DagStructure((Variable("X", 2), Variable("Z", 2)), ((), ()))
        with pytest.raises(ModelError) as exc:
            log_score(metric, other, data)
        assert str(exc.value) == (
            "dataset schema does not match structure variables: ['X', 'Y'] vs ['X', 'Z']"
        )

    def test_arc_posterior_identity_rejected(self):
        data = make_pair_dataset([[1, 1], [1, 1]])
        with pytest.raises(ModelError, match="^component lists a variable twice$"):
            arc_posterior(MetricSpec.k2(), 1, 1, data)


class TestTieExactness:
    """Tables whose exact posteriors are equal score the same float: every
    kernel term is computed alone and the sum is exactly rounded, so the
    order of rows, columns and terms cannot move it."""

    @given(pair_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_row_and_column_permutations(self, table, rnd):
        g, h = table.shape
        rows, cols = rnd.sample(range(g), g), rnd.sample(range(h), h)
        permuted = table[rows][:, cols]
        for metric in ALL_METRICS:
            assert arc_posterior_from_counts(metric, permuted) == (
                arc_posterior_from_counts(metric, table)
            ), metric.label

    @given(pair_tables())
    @settings(max_examples=150, deadline=None)
    def test_gu_is_symmetric(self, table):
        gu = MetricSpec.gu()
        assert arc_posterior_from_counts(gu, table.T) == arc_posterior_from_counts(gu, table)

    @given(one_row_tables())
    @settings(max_examples=150, deadline=None)
    def test_k2_constant_parent_is_exactly_half(self, table):
        assert arc_posterior_from_counts(MetricSpec.k2(), table) == 0.5

    @given(one_row_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_gu_constant_parent_depends_on_shape_and_n_only(self, table, data):
        g, h = table.shape
        n = int(table.sum())
        other = np.zeros((g, h), dtype=np.int64)
        split = sorted(data.draw(st.lists(st.integers(0, n), min_size=h - 1, max_size=h - 1)))
        other[data.draw(st.integers(0, g - 1))] = np.diff([0, *split, n])
        gu = MetricSpec.gu()
        assert arc_posterior_from_counts(gu, other) == arc_posterior_from_counts(gu, table)


class TestConstantPairClosedForms:
    def test_equals_one_at_single_case(self):
        for alpha0 in (0.01, 1.0, 4.0):
            assert bdeu_ratio_constant_pair(1, alpha0).ratio == pytest.approx(
                1.0, abs=1e-12
            )
        assert gu_ratio_constant_pair(1).ratio == pytest.approx(1.0, abs=1e-15)

    def test_matches_generic_scorer(self):
        for n in (1, 10, 1000):
            data = make_pair_dataset([[n, 0], [0, 0]])
            dep, indep = pair_structures(*data.variables)
            for alpha0 in (0.01, 1.0, 4.0):
                generic = structure_ratio(MetricSpec.bdeu(alpha0), dep, indep, data)
                closed = bdeu_ratio_constant_pair(n, alpha0)
                assert closed.log_ratio == pytest.approx(
                    generic.log_ratio, rel=1e-9, abs=1e-12
                )
            generic = structure_ratio(MetricSpec.gu(), dep, indep, data)
            closed = gu_ratio_constant_pair(n)
            assert closed.log_ratio == pytest.approx(
                generic.log_ratio, rel=1e-9, abs=1e-12
            )

    def test_bdeu_grows_and_gu_decays(self):
        ns = (1, 10, 100, 1000, 100000)
        for alpha0 in (0.01, 1.0, 4.0):
            ratios = [bdeu_ratio_constant_pair(n, alpha0).log_ratio for n in ns]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
        gus = [gu_ratio_constant_pair(n).ratio for n in ns]
        assert all(b < a for a, b in zip(gus, gus[1:]))
        # exact rational form at N = 10
        assert gu_ratio_constant_pair(10).ratio == pytest.approx(
            121.0 / 286.0, rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            bdeu_ratio_constant_pair(0, 1.0)
        with pytest.raises(DomainError):
            bdeu_ratio_constant_pair(10, 0.0)
        with pytest.raises(DomainError):
            bdeu_ratio_constant_pair(10, math.inf)
        with pytest.raises(DomainError):
            gu_ratio_constant_pair(0)


class TestMonteCarlo:
    def test_all_zero_counts_estimate_exactly_one(self):
        est, se = mc_marginal_saturated(np.array([0, 0, 0, 0]), 1000, 1)
        assert est == 1.0
        assert se == 0.0

    def test_matches_closed_form_within_three_se(self):
        counts = np.array([3, 2, 1, 0])
        exact = float(
            Fraction(
                math.factorial(3) * math.factorial(3) * math.factorial(2),
                math.factorial(4 + 6 - 1),
            )
        )
        est, se = mc_marginal_saturated(counts, 200000, 7)
        assert abs(est - exact) <= 3.0 * se

    def test_deterministic_per_seed(self):
        counts = np.array([2, 2, 1])
        a = mc_marginal_saturated(counts, 5000, 3)
        b = mc_marginal_saturated(counts, 5000, 3)
        c = mc_marginal_saturated(counts, 5000, 4)
        assert a == b
        assert a != c

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_marginal_saturated(np.array([1, 2]), 999, 1)
        with pytest.raises(DomainError):
            mc_marginal_saturated(np.array([3]), 1000, 1)
        with pytest.raises(DomainError):
            mc_marginal_saturated(np.array([-1, 1]), 1000, 1)


class TestMetricSpec:
    def test_bdeu_requires_alpha0(self):
        with pytest.raises(DomainError):
            MetricSpec("bdeu")
        with pytest.raises(DomainError):
            MetricSpec("bdeu", -1.0)

    @pytest.mark.parametrize("alpha0", [True, np.True_, "4"], ids=["bool", "numpy-bool", "str"])
    def test_alpha0_must_be_a_real_number(self, alpha0):
        with pytest.raises(DomainError, match="^alpha0 must be a real number, got "):
            MetricSpec("bdeu", alpha0)

    @pytest.mark.parametrize(
        "alpha0", [math.inf, math.nan, 10**400, Fraction(1, 10**400)],
        ids=["inf", "nan", "int-past-float", "fraction-below-float"],
    )
    def test_alpha0_must_be_finite(self, alpha0):
        with pytest.raises(DomainError):
            MetricSpec.bdeu(alpha0)

    @pytest.mark.parametrize("alpha0", [1e-320, 1e308])
    def test_pseudo_counts_out_of_float_range(self, alpha0):
        """lnG is infinite at subnormal pseudo-counts and overflows near 1e308;
        both BDeu paths raise before any inf - inf, so no warning is issued."""
        table = np.array([[3, 1], [0, 2]])
        dep, _ = pair_structures(Variable("X", 2), Variable("Y", 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="alpha0"):
                log_score(MetricSpec.bdeu(alpha0), dep, make_pair_dataset(table))
            with pytest.raises(DomainError, match="alpha0"):
                arc_posterior_from_counts(MetricSpec.bdeu(alpha0), table)

    def test_alpha0_forbidden_elsewhere(self):
        with pytest.raises(DomainError):
            MetricSpec("k2", 1.0)
        with pytest.raises(DomainError):
            MetricSpec("gu", 4.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            MetricSpec("bic")

    def test_labels(self):
        # The labels that files hold (rocstats.DEFAULT_METRICS, the golden
        # rows, the benchmark's tokens) keep their bytes.
        assert MetricSpec.k2().label == "k2"
        assert MetricSpec.gu().label == "gu"
        assert MetricSpec.bdeu(4.0).label == "bdeu4"
        assert MetricSpec.bdeu(1.0).label == "bdeu1"
        assert MetricSpec.bdeu(0.01).label == "bdeu0.01"
        assert MetricSpec.bdeu(1e-7).label == "bdeu1e-07"

    @given(
        st.sampled_from([MetricSpec.k2(), MetricSpec.gu()])
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(MetricSpec.bdeu)
        # numpy scalars, as numpy arithmetic hands them out, are stored as floats.
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        .map(lambda a: MetricSpec("bdeu", np.float64(a)))
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32)
        .map(lambda a: MetricSpec("bdeu", np.float32(a)))
        | st.integers(1, 2**63 - 1).map(lambda a: MetricSpec("bdeu", np.int64(a)))
    )
    @example(MetricSpec.bdeu(5e-324))
    @example(MetricSpec.bdeu(1e308))
    @example(MetricSpec("bdeu", np.float64(4.0)))
    def test_parse_reads_back_the_label(self, metric):
        assert metric.alpha0 is None or type(metric.alpha0) is float
        assert MetricSpec.parse(metric.label) == metric

    def test_alpha0_grid_labels_are_distinct(self):
        labels = [MetricSpec.bdeu(a).label for a in ALPHA0_GRID]
        assert len(set(labels)) == len(ALPHA0_GRID) == 61
        assert [MetricSpec.parse(label).alpha0 for label in labels] == list(ALPHA0_GRID)

    @pytest.mark.parametrize("token, alpha0", [("bdeu4.0", 4.0), ("bdeu4e0", 4.0), ("bdeu.5", 0.5)])
    def test_parse_reads_any_float_spelling(self, token, alpha0):
        assert MetricSpec.parse(token) == MetricSpec.bdeu(alpha0)

    @pytest.mark.parametrize("token", ["", "foo", "K2", "bdeu", "bdeuX", "bdeu0", "bdeu-1", "bdeunan"])
    def test_parse_names_any_other_token(self, token):
        with pytest.raises(DomainError) as exc:
            MetricSpec.parse(token)
        assert str(exc.value).startswith(f"bad metric token {token!r}")
