import math
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    DagStructure,
    Dataset,
    DomainError,
    LengthMismatch,
    MetricSpec,
    NotCliqueDecomposable,
    SchemaMismatch,
    Variable,
    arc_posterior,
    bdeu_log_score,
    bdeu_ratio_constant_pair,
    gu_log_score,
    gu_ratio_constant_pair,
    k2_log_score,
    log_dirichlet_multinomial,
    log_gamma,
    log_score,
    mc_marginal_saturated,
    structure_ratio,
)
from bnscore.scoring import arc_posterior_from_counts, pair_structures

from .helpers import make_pair_dataset
from .oracles import (
    bdeu_exact,
    ddm_exact,
    gu_exact,
    k2_exact,
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


class TestLogGamma:
    def test_matches_factorials(self):
        for n in (1, 2, 5, 21, 171):
            expect = float(
                sum(math.log(k) for k in range(1, n))
            )
            assert log_gamma(float(n)) == pytest.approx(expect, rel=1e-12)

    def test_half_integer(self):
        # G(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_wide_range_against_recurrence(self):
        # G(x+1) = x G(x) across the contract's magnitude range
        for x in (1e-3, 0.04, 1.7, 19.0, 4096.5, 1e7 - 1):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestLogDirichletMultinomial:
    def test_zero_counts_give_zero(self):
        assert log_dirichlet_multinomial([0, 0], [1.0, 1.0]) == 0.0

    def test_uniform_prior_single_case(self):
        # one observation, two cells, alpha = (1, 1): probability 1/2
        got = log_dirichlet_multinomial([1, 0], [1.0, 1.0])
        assert got == pytest.approx(math.log(0.5), rel=1e-14)

    def test_against_exact_rational(self):
        cases = [
            ([3, 2], [1.0, 1.0]),
            ([1, 1], [0.5, 0.5]),
            ([4, 0, 1], [2.0, 0.25, 1.0]),
            ([10, 20, 30], [1.0, 1.0, 1.0]),
        ]
        for counts, alphas in cases:
            exact = ddm_exact(counts, [Fraction(a).limit_denominator() for a in alphas])
            got = log_dirichlet_multinomial(counts, alphas)
            assert got == pytest.approx(log_of_fraction(exact), rel=1e-12)

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            log_dirichlet_multinomial([1, 2], [1.0])
        with pytest.raises(LengthMismatch):
            log_dirichlet_multinomial([1], [1.0])
        with pytest.raises(DomainError):
            log_dirichlet_multinomial([-1, 1], [1.0, 1.0])
        with pytest.raises(DomainError):
            log_dirichlet_multinomial([1, 1], [0.0, 1.0])

    @given(
        st.lists(st.integers(0, 40), min_size=2, max_size=5),
        st.lists(st.integers(1, 8), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_cases_match_oracle(self, counts, alpha_quarters):
        k = min(len(counts), len(alpha_quarters))
        counts, alphas = counts[:k], [Fraction(a, 4) for a in alpha_quarters[:k]]
        got = log_dirichlet_multinomial(counts, [float(a) for a in alphas])
        assert got == pytest.approx(
            log_of_fraction(ddm_exact(counts, alphas)), rel=1e-10, abs=1e-12
        )


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
        assert k2_log_score(dep, data) == pytest.approx(
            log_of_fraction(k2_exact([2, 2], [(), (0,)], cases)), rel=1e-12
        )
        assert k2_log_score(indep, data) == pytest.approx(
            log_of_fraction(k2_exact([2, 2], [(), ()], cases)), rel=1e-12
        )

    @pytest.mark.parametrize("alpha0", [Fraction(1, 100), Fraction(1), Fraction(4)])
    def test_bdeu_pair(self, alpha0):
        table = [[6, 1], [2, 3]]
        data, dep, indep = self.pair(table)
        cases = pair_cases(table)
        got = bdeu_log_score(dep, data, float(alpha0))
        assert got == pytest.approx(
            log_of_fraction(bdeu_exact([2, 2], [(), (0,)], cases, alpha0)), rel=1e-12
        )
        got = bdeu_log_score(indep, data, float(alpha0))
        assert got == pytest.approx(
            log_of_fraction(bdeu_exact([2, 2], [(), ()], cases, alpha0)), rel=1e-12
        )

    def test_gu_pair(self):
        table = [[6, 1], [2, 3]]
        data, dep, indep = self.pair(table)
        cases = pair_cases(table)
        assert gu_log_score(dep, data) == pytest.approx(
            log_of_fraction(gu_exact([2, 2], [(0, 1)], cases)), rel=1e-12
        )
        assert gu_log_score(indep, data) == pytest.approx(
            log_of_fraction(gu_exact([2, 2], [(0,), (1,)], cases)), rel=1e-12
        )

    def test_three_variable_chain_k2(self):
        rng = np.random.default_rng(5)
        vs = tuple(Variable(n, 2) for n in "ABC")
        s = DagStructure(vs, ((), (0,), (1,)))
        cases = rng.integers(0, 2, size=(20, 3))
        data = Dataset(vs, cases)
        exact = k2_exact([2, 2, 2], [(), (0,), (1,)], [tuple(c) for c in cases])
        assert k2_log_score(s, data) == pytest.approx(
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
        with pytest.raises(NotCliqueDecomposable) as exc:
            gu_log_score(chain, data)
        assert "'A'" in str(exc.value) and "'C'" in str(exc.value)

    def test_gu_accepts_saturated_triangle(self):
        vs = tuple(Variable(n, 2) for n in "ABC")
        tri = DagStructure(vs, ((), (0,), (0, 1)))
        data = Dataset(vs, [(0, 0, 0), (1, 1, 0), (0, 1, 1)])
        cases = [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
        assert gu_log_score(tri, data) == pytest.approx(
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
            assert bdeu_log_score(fwd, data, alpha0) == pytest.approx(
                bdeu_log_score(rev, data, alpha0), abs=1e-10
            )
        assert gu_log_score(fwd, data) == pytest.approx(
            gu_log_score(rev, data), abs=1e-10
        )

    @given(count_tables)
    @settings(max_examples=60, deadline=None)
    def test_gu_coincides_with_matched_bdeu_on_binary_pairs(self, table):
        data = make_pair_dataset(table)
        dep, indep = pair_structures(*data.variables)
        assert gu_log_score(dep, data) == pytest.approx(
            bdeu_log_score(dep, data, 4.0), abs=1e-10
        )
        assert gu_log_score(indep, data) == pytest.approx(
            bdeu_log_score(indep, data, 2.0), abs=1e-10
        )

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
            scores[mask] = bdeu_log_score(s, data, 4.0)
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
        pair = data.project([2, 0])
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

    def test_arc_posterior_identity_rejected(self):
        data = make_pair_dataset([[1, 1], [1, 1]])
        with pytest.raises(SchemaMismatch):
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

    @pytest.mark.parametrize("alpha0", [math.inf, math.nan])
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
                bdeu_log_score(dep, make_pair_dataset(table), alpha0)
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
        assert MetricSpec.k2().label == "k2"
        assert MetricSpec.gu().label == "gu"
        assert MetricSpec.bdeu(4.0).label == "bdeu4"
        assert MetricSpec.bdeu(0.01).label == "bdeu0.01"
