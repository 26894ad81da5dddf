import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnscore import (
    BayesNet,
    DagStructure,
    Dataset,
    DomainError,
    MetricSpec,
    ModelError,
    PairSets,
    Variable,
    arc_posterior,
    count_sufficient_stats,
    d_separated,
    forward_sample,
    joint_cell_counts,
    parse_dataset,
    rocstats,
    run_alarm_experiment,
)
from bnscore.model import _mixed_radix, _pair_count_tables
from bnscore.rocstats import marginally_d_separated_pairs
from bnscore.scoring import _cliques

from .oracles import d_separated_brute, smallest_topological_order


def chain3():
    vs = tuple(Variable(n, 2) for n in "ABC")
    return DagStructure(vs, ((), (0,), (1,)))


def collider3():
    vs = tuple(Variable(n, 2) for n in "ABC")
    return DagStructure(vs, ((), (), (0, 1)))


@st.composite
def relabelled_dags(draw):
    """(n, arcs, structure) for a random DAG on 3-7 binary variables whose
    indices are shuffled, so index order is not a topological order."""
    n = draw(st.integers(3, 7))
    possible = [(a, b) for b in range(n) for a in range(b)]
    label = draw(st.permutations(range(n)))
    edges = {(label[a], label[b]) for a, b in draw(st.sets(st.sampled_from(possible)))}
    parents = tuple(tuple(sorted(a for a, b in edges if b == c)) for c in range(n))
    return n, edges, DagStructure(tuple(Variable(f"V{i}", 2) for i in range(n)), parents)


@st.composite
def cyclic_digraphs(draw):
    """(arcs, parents) for a random digraph on 2-8 variables that contains
    at least one directed cycle; no self-loops or duplicate arcs."""
    n = draw(st.integers(2, 8))
    possible = [(a, b) for a in range(n) for b in range(n) if a != b]
    arcs = set(draw(st.sets(st.sampled_from(possible))))
    loop = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    arcs |= set(zip(loop, loop[1:] + loop[:1]))
    parents = tuple(tuple(sorted(a for a, b in arcs if b == c)) for c in range(n))
    return arcs, parents


class TestVariable:
    def test_default_labels_are_one_based(self):
        v = Variable("X", 3)
        assert v.state_labels == ("1", "2", "3")

    def test_arity_below_two_rejected(self):
        with pytest.raises(ModelError):
            Variable("X", 1)

    def test_label_count_must_match_arity(self):
        with pytest.raises(ModelError):
            Variable("X", 2, ("a", "b", "c"))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ModelError):
            Variable("X", 2, ("a", "a"))

    def test_state_index(self):
        v = Variable("X", 2, ("lo", "hi"))
        assert v.state_index("hi") == 1
        with pytest.raises(ModelError, match="^variable 'X' has no state labelled 'mid'$"):
            v.state_index("mid")


# Without its guards, the cycle walk never ends: a hang must fail.
@pytest.mark.bounded
class TestDagValidation:
    def test_two_cycle_rejected(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        with pytest.raises(ModelError) as exc:
            DagStructure(vs, ((1,), (0,)))
        assert str(exc.value) == "cycle detected: X -> Y -> X"

    def test_longer_cycle_reported(self):
        vs = tuple(Variable(n, 2) for n in "ABC")
        with pytest.raises(ModelError, match="^cycle detected: A -> B -> C -> A$"):
            DagStructure(vs, ((2,), (0,), (1,)))

    @given(cyclic_digraphs())
    @settings(max_examples=80, deadline=None)
    def test_cycle_message_names_a_closed_walk_of_arcs(self, graph):
        arcs, parents = graph
        vs = tuple(Variable(f"V{i}", 2) for i in range(len(parents)))
        with pytest.raises(ModelError) as exc:
            DagStructure(vs, parents)
        prefix = "cycle detected: "
        assert str(exc.value).startswith(prefix)
        walk = [int(name[1:]) for name in str(exc.value)[len(prefix):].split(" -> ")]
        assert len(walk) >= 3 and walk[0] == walk[-1]
        assert all(step in arcs for step in zip(walk, walk[1:]))

    def test_self_loop(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        with pytest.raises(ModelError, match="^variable 'Y' lists itself as a parent$"):
            DagStructure(vs, ((), (1,)))

    def test_duplicate_parent(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        with pytest.raises(ModelError, match="^variable 'Y' lists parent 'X' twice$"):
            DagStructure(vs, ((), (0, 0)))

    def test_parent_index_out_of_range(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        with pytest.raises(ModelError) as exc:
            DagStructure(vs, ((), (5,)))
        assert str(exc.value) == "variable 'Y': parent index 5 out of range 0..1"

    def test_duplicate_names_rejected(self):
        vs = (Variable("X", 2), Variable("X", 2))
        with pytest.raises(ModelError):
            DagStructure(vs, ((), ()))

    def test_topological_order_puts_parents_first(self):
        s = collider3()
        order = s.topological_order()
        assert set(order) == {0, 1, 2}
        assert order.index(2) > order.index(0)
        assert order.index(2) > order.index(1)

    def test_arcs_enumeration(self):
        assert collider3().arcs() == ((0, 2), (1, 2))
        assert chain3().arcs() == ((0, 1), (1, 2))

    @given(relabelled_dags())
    @settings(max_examples=80, deadline=None)
    def test_derived_order_and_children(self, dag):
        n, edges, s = dag
        assert s.topological_order() == smallest_topological_order(n, edges)
        for v in range(n):
            assert s.children(v) == tuple(sorted(b for a, b in edges if a == v))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mixed_radix_is_numpy_c_order(data):
    n_cols = data.draw(st.integers(1, 6))
    arities = data.draw(st.lists(st.integers(2, 4), min_size=n_cols, max_size=n_cols))
    n_cases = data.draw(st.integers(0, 30))
    cases = np.array(
        [[data.draw(st.integers(0, r - 1)) for r in arities] for _ in range(n_cases)],
        dtype=np.int64,
    ).reshape(n_cases, n_cols)
    cols = data.draw(st.permutations(range(n_cols)))[: data.draw(st.integers(1, n_cols))]
    picked = [arities[c] for c in cols]
    expected = np.ravel_multi_index(tuple(cases[:, c] for c in cols), picked)
    assert np.array_equal(_mixed_radix(cases, cols, picked), expected)


@pytest.mark.parametrize(
    "dtype, arities", [(np.uint8, (256, 256, 3)), (np.uint16, (300, 2, 300))], ids=["uint8", "uint16"]
)
def test_mixed_radix_of_narrow_columns_counts_in_int64(dtype, arities):
    """Flat indices pass 2**16, past both column types: the fold must not wrap."""
    rng = np.random.default_rng(7)
    cases = np.asfortranarray(rng.integers(0, arities, size=(500, 3)).astype(dtype))
    cases[0] = [r - 1 for r in arities]
    cols = (2, 0, 1)
    picked = [arities[c] for c in cols]
    expected = np.ravel_multi_index(tuple(cases[:, c] for c in cols), picked)
    got = _mixed_radix(cases, cols, picked)
    assert got.dtype == np.int64
    assert got.max() >= 2**16
    assert np.array_equal(got, expected)


class TestDataset:
    def test_state_bounds_checked(self):
        vs = (Variable("X", 2),)
        with pytest.raises(ModelError, match=r"^variable 'X': state 2 outside 0\.\.1$"):
            Dataset(vs, [(2,)])

    @pytest.mark.parametrize(
        "arity, dtype",
        [(2, np.uint8), (256, np.uint8), (257, np.uint16), (65537, np.uint32)],
    )
    def test_cases_take_the_narrowest_unsigned_type(self, arity, dtype):
        """Each producer stores states as the narrowest unsigned type that
        holds the largest, arity - 1."""
        vs = (Variable("X", arity), Variable("Y", 2))
        given = [[arity - 1, 1], [0, 0], [arity // 2, 1]]
        net = BayesNet(
            DagStructure(vs, ((), (0,))),
            (np.full((1, arity), 1 / arity), np.full((arity, 2), 0.5)),
        )
        for data in (
            Dataset(vs, given),
            Dataset(vs, np.array(given, dtype=dtype)),
            parse_dataset(f"X,Y\n{arity},2\n1,1\n{arity // 2 + 1},2\n", vs),
            forward_sample(net, 40, 3),
        ):
            assert data.cases.dtype == dtype
            assert data.cases.flags.f_contiguous and not data.cases.flags.writeable
        assert Dataset(vs, given).cases.tolist() == given

    @pytest.mark.parametrize("bad", [-1, 4, 256, 260, 2**32 + 1])
    def test_states_checked_before_narrowing(self, bad):
        """A state outside 0..arity-1 raises, whatever it would wrap to in uint8."""
        vs = (Variable("Y", 2), Variable("X", 4))
        for cases in ([[0, 1], [1, bad]], np.array([[0, 1], [1, bad]], dtype=np.int64, order="F")):
            with pytest.raises(ModelError, match=rf"^variable 'X': state {bad} outside 0\.\.3$"):
                Dataset(vs, cases)

    def test_empty_dataset(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        d = Dataset(vs, [])
        assert d.n_cases == 0
        assert d.cases.shape == (0, 2)

    def test_cases_are_read_only(self):
        d = Dataset((Variable("X", 2),), [(0,), (1,)])
        with pytest.raises(ValueError):
            d.cases[0, 0] = 1

    def test_equality_with_another_type_is_false(self):
        assert (Dataset((Variable("X", 2),), [(0,)]) == 1) is False

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_array_is_copied(self, order):
        """The caller's array is copied, never aliased, whatever its order."""
        vs = (Variable("X", 2), Variable("Y", 3))
        cases = np.array([[0, 2], [1, 1]], dtype=np.int64, order=order)
        d = Dataset(vs, cases)
        cases[0, 1] = 0
        assert d.cases.tolist() == [[0, 2], [1, 1]]
        assert cases.flags.writeable


class TestCounting:
    def test_constant_pair_counts(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        s = DagStructure(vs, ((), (0,)))
        data = Dataset(vs, [(0, 0)] * 10)
        stats = count_sufficient_stats(s, data)
        assert stats[0].tolist() == [[10, 0]]
        assert stats[1].tolist() == [[10, 0], [0, 0]]

    def test_counts_sum_to_n_for_every_variable(self):
        rng = np.random.default_rng(42)
        vs = (Variable("A", 2), Variable("B", 3), Variable("C", 2))
        s = DagStructure(vs, ((), (0,), (0, 1)))
        cases = np.column_stack(
            [rng.integers(0, v.arity, 50) for v in vs]
        )
        stats = count_sufficient_stats(s, Dataset(vs, cases))
        for t in stats:
            assert t.sum() == 50
            assert not t.flags.writeable

    def test_case_order_does_not_matter(self):
        rng = np.random.default_rng(7)
        vs = (Variable("A", 2), Variable("B", 2))
        s = DagStructure(vs, ((), (0,)))
        cases = rng.integers(0, 2, size=(30, 2))
        d1 = Dataset(vs, cases)
        d2 = Dataset(vs, cases[rng.permutation(30)])
        s1 = count_sufficient_stats(s, d1)
        s2 = count_sufficient_stats(s, d2)
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

    def test_first_parent_most_significant(self):
        vs = (Variable("A", 2), Variable("B", 3), Variable("C", 2))
        s = DagStructure(vs, ((), (), (0, 1)))
        # parent configuration (a, b) holds a * 3 + b + 1 cases, all with C = 0
        cases = [(a, b, 0) for a in range(2) for b in range(3) for _ in range(a * 3 + b + 1)]
        table = count_sufficient_stats(s, Dataset(vs, cases))[2]
        assert table.tolist() == [[k, 0] for k in range(1, 7)]

    def test_schema_mismatch(self):
        s = chain3()
        other = Dataset((Variable("Z", 2),), [(0,)])
        with pytest.raises(ModelError) as exc:
            count_sufficient_stats(s, other)
        assert str(exc.value) == (
            "dataset schema does not match structure variables: ['Z'] vs ['A', 'B', 'C']"
        )

    def test_joint_cell_counts_mixed_radix(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        data = Dataset(vs, [(0, 0)] * 3 + [(0, 1)] * 2 + [(1, 0)] + [(1, 1)] * 4)
        assert joint_cell_counts((0, 1), data).tolist() == [3, 2, 1, 4]
        # single-variable component is just that variable's marginal
        assert joint_cell_counts((1,), data).tolist() == [4, 6]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair_count_tables_equal_joint_cell_counts(self, data):
        """Counts from packed state bitsets, over case counts that cross the
        8- and 64-bit word edges, equal the folded bincount."""
        arities = data.draw(st.lists(st.integers(2, 5), min_size=2, max_size=5))
        n_cases = data.draw(st.integers(0, 130))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vs = tuple(Variable(f"V{i}", r) for i, r in enumerate(arities))
        dataset = Dataset(vs, rng.integers(0, arities, size=(n_cases, len(arities))))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(vs) - 1), st.integers(0, len(vs) - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                min_size=1,
                max_size=8,
            )
        )
        pairs += [(y, x) for x, y in pairs]
        got = {}
        for positions, tables in _pair_count_tables(dataset, pairs):
            assert tables.dtype == np.int64
            got.update(zip(positions, tables.tolist()))
        assert sorted(got) == list(range(len(pairs)))
        for i, (x, y) in enumerate(pairs):
            want = joint_cell_counts((x, y), dataset).reshape(arities[x], arities[y])
            assert got[i] == want.tolist(), (x, y)

    def test_pair_count_tables_of_uint16_cases(self):
        """States past 255 pack into the same bitsets as any other."""
        rng = np.random.default_rng(3)
        vs = (Variable("A", 300), Variable("B", 3), Variable("C", 2))
        cases = rng.integers(0, (300, 3, 2), size=(200, 3))
        cases[0] = (299, 2, 1)
        data = Dataset(vs, cases)
        assert data.cases.dtype == np.uint16
        pairs = [(0, 1), (2, 0), (1, 2)]
        for positions, tables in _pair_count_tables(data, pairs):
            for i, table in zip(positions, tables):
                x, y = pairs[i]
                want = joint_cell_counts((x, y), data).reshape(vs[x].arity, vs[y].arity)
                assert np.array_equal(table, want), (x, y)

    def test_pair_count_tables_validation(self, monkeypatch):
        """_pair_count_tables checks nothing: a bad pair is stopped where it
        enters, by joint_cell_counts, arc_posterior or the ROC study's check
        before its first sample."""
        vs = (Variable("X", 2), Variable("Y", 3))
        data = Dataset(vs, [(0, 1)])
        net = BayesNet(DagStructure(vs, ((), ())), (np.full((1, 2), 1 / 2), np.full((1, 3), 1 / 3)))
        monkeypatch.setattr(rocstats, "forward_sample", None)  # never reached
        for pairs, message in (
            ([(1, 1)], "component lists a variable twice"),
            ([(0, 1), (0, 0)], "component lists a variable twice"),
            ([(0, 2)], "component index 2 out of range 0..1"),
            ([(-1, 0)], "component index -1 out of range 0..1"),
        ):
            match = f"^{re.escape(message)}$"
            with pytest.raises(ModelError, match=match):
                joint_cell_counts(pairs[-1], data)
            with pytest.raises(ModelError, match=match):
                arc_posterior(MetricSpec.k2(), *pairs[-1], data)
            monkeypatch.setattr(
                rocstats, "enumerate_pair_sets", lambda *args: PairSets(tuple(pairs), (), 0)
            )
            with pytest.raises(ModelError, match=match):
                run_alarm_experiment(net, sizes=(5,), reps=2, metrics=(MetricSpec.k2(),))

    def test_joint_cell_counts_validation(self):
        vs = (Variable("X", 2),)
        data = Dataset(vs, [(0,)])
        with pytest.raises(ModelError, match="^component must name at least one variable$"):
            joint_cell_counts((), data)
        with pytest.raises(ModelError, match=r"^component index 3 out of range 0\.\.0$"):
            joint_cell_counts((3,), data)
        with pytest.raises(ModelError, match="^component lists a variable twice$"):
            joint_cell_counts((0, 0), data)


# Without its guards, a frontier loop never ends: a hang must fail.
@pytest.mark.bounded
class TestDSeparation:
    """Reachability must agree with the textbook path-blocking definition."""

    def test_chain_blocked_by_middle(self):
        s = chain3()
        assert not d_separated(s, 0, 2, ())
        assert d_separated(s, 0, 2, (1,))

    def test_fork_blocked_by_root(self):
        vs = tuple(Variable(n, 2) for n in "ABC")
        s = DagStructure(vs, ((1,), (), (1,)))  # A <- B -> C
        assert not d_separated(s, 0, 2, ())
        assert d_separated(s, 0, 2, (1,))

    def test_collider_opens_when_conditioned(self):
        s = collider3()
        assert d_separated(s, 0, 1, ())
        assert not d_separated(s, 0, 1, (2,))

    def test_collider_descendant_also_opens(self):
        vs = tuple(Variable(n, 2) for n in "ABCD")
        s = DagStructure(vs, ((), (), (0, 1), (2,)))  # A,B -> C -> D
        assert d_separated(s, 0, 1, ())
        assert not d_separated(s, 0, 1, (3,))

    def test_preconditions(self):
        s = chain3()
        with pytest.raises(ModelError):
            d_separated(s, 0, 0, ())
        with pytest.raises(ModelError):
            d_separated(s, 0, 1, (0,))
        with pytest.raises(ModelError, match=r"^variable index 9 out of range 0\.\.2$"):
            d_separated(s, 0, 9, ())

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_path_enumeration_oracle(self, data):
        n, edges, s = data.draw(relabelled_dags())
        x, y = data.draw(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            )
        )
        given_pool = [v for v in range(n) if v not in (x, y)]
        z = data.draw(st.sets(st.sampled_from(given_pool))) if given_pool else set()
        got = d_separated(s, x, y, tuple(z))
        want = d_separated_brute(n, edges, x, y, z)
        assert got == want

    @given(relabelled_dags())
    @settings(max_examples=80, deadline=None)
    def test_marginal_pairs_match_path_enumeration_oracle(self, dag):
        n, edges, s = dag
        cpts = tuple(np.full((s.parent_config_count(v), 2), 0.5) for v in range(n))
        net = BayesNet(s, cpts)
        want = tuple(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if d_separated_brute(n, edges, a, b, ())
        )
        assert marginally_d_separated_pairs(net) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, data):
        n = data.draw(st.integers(3, 5))
        possible = [(a, b) for b in range(n) for a in range(b)]
        edges = data.draw(st.sets(st.sampled_from(possible)))
        vs = tuple(Variable(f"V{i}", 2) for i in range(n))
        parents = tuple(
            tuple(a for a, b in sorted(edges) if b == c) for c in range(n)
        )
        s = DagStructure(vs, parents)
        assert d_separated(s, 0, 1, ()) == d_separated(s, 1, 0, ())


class TestCliqueDecomposition:
    """GU's precondition, scoring._cliques: the skeleton's components, or
    DomainError naming the first pair that no edge joins."""

    def test_arc_pair_is_clique(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        assert _cliques(DagStructure(vs, ((), (0,)))) == [(0, 1)]

    def test_isolated_variables_are_singleton_cliques(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        assert _cliques(DagStructure(vs, ((), ()))) == [(0,), (1,)]

    def test_chain_is_not_clique_union(self):
        with pytest.raises(DomainError) as exc:
            _cliques(chain3())
        assert str(exc.value) == (
            "skeleton is not a union of cliques: 'A' and 'C' are connected but not adjacent"
        )

    def test_witness_is_the_first_missing_edge(self):
        vs = tuple(Variable(n, 2) for n in "ABCDEFG")
        # Components (0, 2, 4, 6) and (1, 3, 5), each a chain in index order.
        s = DagStructure(vs, ((), (), (0,), (1,), (2,), (3,), (4,)))
        with pytest.raises(DomainError) as exc:
            _cliques(s)
        assert str(exc.value) == (
            "skeleton is not a union of cliques: 'A' and 'E' are connected but not adjacent"
        )

    def test_collider_plus_edge_is_clique(self):
        vs = tuple(Variable(n, 2) for n in "ABC")
        s = DagStructure(vs, ((), (0,), (0, 1)))  # saturated triangle
        assert _cliques(s) == [(0, 1, 2)]

    def test_mixed_components(self):
        vs = tuple(Variable(n, 2) for n in "ABCD")
        s = DagStructure(vs, ((), (0,), (), ()))  # {A,B} clique, C, D alone
        assert _cliques(s) == [(0, 1), (2,), (3,)]


class TestBayesNet:
    def test_row_sums_checked(self):
        vs = (Variable("X", 2),)
        s = DagStructure(vs, ((),))
        with pytest.raises(ModelError):
            BayesNet(s, (np.array([[0.6, 0.3]]),))

    def test_shape_checked(self):
        vs = (Variable("X", 2), Variable("Y", 2))
        s = DagStructure(vs, ((), (0,)))
        with pytest.raises(ModelError):
            BayesNet(s, (np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])))

    def test_entries_in_unit_interval(self):
        vs = (Variable("X", 2),)
        s = DagStructure(vs, ((),))
        with pytest.raises(ModelError):
            BayesNet(s, (np.array([[1.5, -0.5]]),))

    @pytest.mark.parametrize(
        "row", [[np.nan, np.nan], [np.nan, 1.0], [0.0, np.nan], [np.inf, -np.inf]]
    )
    def test_non_finite_entries_rejected(self, row):
        vs = (Variable("X", 2),)
        s = DagStructure(vs, ((),))
        with pytest.raises(ModelError):
            BayesNet(s, (np.array([row]),))

    def test_cpts_are_read_only_copies(self):
        given = np.array([[0.6, 0.4]])
        net = BayesNet(DagStructure((Variable("X", 2),), ((),)), (given,))
        with pytest.raises(ValueError):
            net.cpts[0][0, 0] = 0.5
        assert given.flags.writeable and net.cpts[0] is not given

    def test_equality_with_another_type_is_false(self):
        net = BayesNet(DagStructure((Variable("X", 2),), ((),)), (np.array([[0.6, 0.4]]),))
        assert (net == 1) is False


BINARY = (Variable("X", 2), Variable("Y", 2))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Variable("", 2), ModelError, "variable name must be a non-empty string"),
        (lambda: DagStructure((), ()), ModelError, "structure needs at least one variable"),
        (lambda: DagStructure(BINARY, ((),)), ModelError, "1 parent sets for 2 variables"),
        (lambda: Dataset(BINARY, [(0, 1, 0)]), ModelError,
         "case array must have 2 columns, got shape (1, 3)"),
        (lambda: BayesNet(DagStructure(BINARY, ((), ())), (np.array([[0.5, 0.5]]),)),
         ModelError, "1 CPTs for 2 variables"),
        (lambda: BayesNet(DagStructure(BINARY, ((), ())),
                          (np.array([[0.5, 0.5]]), np.array([[0.5, 0.4]]))),
         ModelError, "variable 'Y': CPT row 0 sums to 0.9, not 1"),
    ],
    ids=["empty-name", "no-variables", "parent-set-count", "dataset-width", "cpt-count",
         "cpt-row-sum"],
)
def test_invalid_model_input_raises_its_error(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


class TestAlarmTranscription:
    def test_size(self, alarm):
        assert alarm.structure.n == 37
        assert len(alarm.structure.arcs()) == 46

    def test_known_families(self, alarm):
        s = alarm.structure
        catechol = s.index_of("CATECHOL")
        names = [s.variables[p].name for p in s.parents[catechol]]
        assert names == ["TPR", "SAO2", "INSUFFANESTH", "ARTCO2"]
        assert s.parent_config_count(catechol) == 54

    def test_arity_histogram(self, alarm):
        arities = sorted(v.arity for v in alarm.structure.variables)
        assert arities.count(2) == 13
        assert arities.count(3) == 17
        assert arities.count(4) == 7

    def test_marginal_d_separation_count(self, alarm):
        # Regression pin for the bundled transcription: its 46-arc skeleton
        # yields 365 marginally d-separated unordered pairs.  The pair set
        # itself is checked against the brute-force oracle in
        # test_acceptance.py::test_criterion_09_alarm_structure_facts.
        from bnscore.rocstats import marginally_d_separated_pairs

        assert len(marginally_d_separated_pairs(alarm.net)) == 365

    @pytest.mark.bounded
    def test_hr_blocks_measurement_channels(self, alarm):
        s = alarm.structure
        hrbp, hrekg, hr = (s.index_of(n) for n in ("HRBP", "HREKG", "HR"))
        assert not d_separated(s, hrbp, hrekg, ())
        assert d_separated(s, hrbp, hrekg, (hr,))
