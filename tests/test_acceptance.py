"""Acceptance gate: one test per published claim, one printed line each.

Every test prints ``criterion NN PASS|FAIL: <detail>`` (visible with
``pytest tests/test_acceptance.py -s``) and then asserts, so the suite
both documents and enforces the claims the package is built to
reproduce.  Criterion 9 judges the ALARM negative-pair pool by the
brute-force d-separation enumerator: the network gives 365 marginally
d-separated pairs, not the 300 the original experiment reports, and no
DAG one arc away from ALARM gives 300 either.  The published figure is
printed as an open discrepancy, not asserted.
"""

import itertools
import math
import os
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bnscore import (
    ALPHA0_GRID,
    EXAMPLES,
    DagStructure,
    Dataset,
    ExampleSpec,
    MetricSpec,
    Variable,
    log_score,
    marginally_d_separated_pairs,
    pair_structures,
    rocstats,
    run_alarm_experiment,
    run_example,
    structure_ratio,
)
from bnscore.cli import main

from .helpers import make_pair_dataset
from .oracles import (
    bdeu_exact,
    bdeu_ratio_constant_pair,
    d_separated_brute,
    ddm_exact,
    gu_exact,
    k2_exact,
    mc_marginal_saturated,
    noise_free_cases,
    pair_cases,
)

XY = (Variable("X", 2), Variable("Y", 2))
DEP, INDEP = pair_structures(*XY)
ALL_METRICS = (
    MetricSpec.bdeu(0.01),
    MetricSpec.bdeu(1.0),
    MetricSpec.bdeu(4.0),
    MetricSpec.k2(),
    MetricSpec.gu(),
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _rows_by_key(example: int):
    rows = run_example(EXAMPLES[example])
    return {(r.metric, r.alpha0, r.n): r for r in rows}


def test_criterion_01_exact_oracle_pair_ratios():
    """Binary pair, ten constant cases: ratios match exact rationals."""
    cases = noise_free_cases(EXAMPLES[1].marginals, 10)
    data = Dataset(XY, cases)
    arities = (2, 2)

    exact = {
        "k2": k2_exact(arities, ((), (0,)), cases) / k2_exact(arities, ((), ()), cases),
        "bdeu4": bdeu_exact(arities, ((), (0,)), cases, Fraction(4))
        / bdeu_exact(arities, ((), ()), cases, Fraction(4)),
        "gu": gu_exact(arities, ((0, 1),), cases)
        / gu_exact(arities, ((0,), (1,)), cases),
    }
    assert exact["k2"] == Fraction(1)
    assert exact["gu"] == Fraction(121, 286)
    assert exact["bdeu4"] == Fraction(676, 286)

    got = {
        "k2": structure_ratio(MetricSpec.k2(), DEP, INDEP, data).ratio,
        "bdeu4": structure_ratio(MetricSpec.bdeu(4.0), DEP, INDEP, data).ratio,
        "gu": structure_ratio(MetricSpec.gu(), DEP, INDEP, data).ratio,
    }
    devs = {k: abs(got[k] - float(exact[k])) / float(exact[k]) for k in exact}
    ok = max(devs.values()) <= 1e-9
    _report(
        1,
        ok,
        "K2=1, GU=121/286, BDeu(4)=676/286 at N=10; "
        f"worst relative deviation {max(devs.values()):.3g} (tol 1e-9)",
    )
    assert ok, devs


def test_criterion_02_constant_pair_closed_form():
    """Closed-form constant-pair BDeu ratio matches the generic scorer."""
    sizes = (1, 10, 1000, 100000)
    alpha0s = (0.01, 1.0, 4.0)
    worst = 0.0
    series_ok = True
    for a0 in alpha0s:
        ratios = []
        for n in sizes:
            data = Dataset(XY, np.zeros((n, 2), dtype=np.int64))
            generic = structure_ratio(MetricSpec.bdeu(a0), DEP, INDEP, data).ratio
            closed = bdeu_ratio_constant_pair(n, a0).ratio
            worst = max(worst, abs(closed - generic) / generic)
            ratios.append(closed)
        series_ok = series_ok and all(r > 1.0 for r in ratios[1:])
        series_ok = series_ok and all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = worst <= 1e-9 and series_ok
    _report(
        2,
        ok,
        f"closed vs generic worst rel dev {worst:.3g} (tol 1e-9); "
        f"ratio > 1 and increasing over N in {sizes}: {series_ok}",
    )
    assert ok


def test_criterion_03_scores_normalize():
    """exp(log score) sums to 1 over all 64 length-3 binary-pair sequences."""
    worst = 0.0
    for metric in ALL_METRICS:
        for structure in (DEP, INDEP):
            total = 0.0
            for cells in itertools.product(range(4), repeat=3):
                cases = np.array([divmod(c, 2) for c in cells], dtype=np.int64)
                total += math.exp(log_score(metric, structure, Dataset(XY, cases)))
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    _report(3, ok, f"worst |sum - 1| = {worst:.3g} over 10 metric/structure combos (tol 1e-10)")
    assert ok


def _random_tables(count=100, seed=2024):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 31, size=(2, 2)) for _ in range(count)]


def test_criterion_04_likelihood_equivalence():
    """Arc direction never changes the BDeu or GU score."""
    reversed_dep = DagStructure(XY, ((1,), ()))
    gu = MetricSpec.gu()
    worst = 0.0
    for table in _random_tables():
        data = make_pair_dataset(table)
        for a0 in (0.01, 1.0, 4.0):
            worst = max(
                worst,
                abs(
                    log_score(MetricSpec.bdeu(a0), DEP, data)
                    - log_score(MetricSpec.bdeu(a0), reversed_dep, data)
                ),
            )
        worst = max(worst, abs(log_score(gu, DEP, data) - log_score(gu, reversed_dep, data)))
    ok = worst <= 1e-10
    _report(4, ok, f"100 random tables, worst |forward - reversed| = {worst:.3g} (tol 1e-10)")
    assert ok


def test_criterion_05_gu_equals_bdeu_at_matched_alpha0():
    """GU is BDeu with alpha0 = 4 on the arc, alpha0 = 2 with no arc."""
    worst = 0.0
    for table in _random_tables():
        data = make_pair_dataset(table)
        for s, a0 in ((DEP, 4.0), (INDEP, 2.0)):
            gu = log_score(MetricSpec.gu(), s, data)
            worst = max(worst, abs(gu - log_score(MetricSpec.bdeu(a0), s, data)))
    ok = worst <= 1e-10
    _report(5, ok, f"100 random tables, worst |GU - matched BDeu| = {worst:.3g} (tol 1e-10)")
    assert ok


def test_criterion_06_monte_carlo_agrees_with_closed_form():
    """Simplex-sampled marginal likelihood lands within 3 SE of exact."""
    worst_z = 0.0
    for counts in ((3, 2, 1, 0), (5, 0, 2, 1)):
        exact = float(ddm_exact(list(counts), [Fraction(1)] * 4))
        for seed in (1, 2, 3):
            est, se = mc_marginal_saturated(np.array(counts), 10**6, seed)
            worst_z = max(worst_z, abs(est - exact) / se)
    ok = worst_z <= 3.0
    _report(6, ok, f"10^6 samples x 3 seeds x 2 count vectors, worst |z| = {worst_z:.2f} (limit 3)")
    assert ok


def test_criterion_07_benchmark_directions():
    """Qualitative shape of the eleven-example ratio study."""
    checks = []

    by1 = _rows_by_key(1)
    for n in EXAMPLES[1].sizes:
        for a0 in (0.01, 1.0, 4.0):
            checks.append(("ex1 bdeu > 1", by1[("bdeu", a0, n)].ratio > 1.0))
        checks.append(("ex1 gu < 1", by1[("gu", None, n)].ratio < 1.0))

    for ex in (2, 3):
        checks.append((f"ex{ex} bdeu4 > 1", _rows_by_key(ex)[("bdeu", 4.0, 1000)].ratio > 1.0))
    for ex in (4, 5):
        checks.append((f"ex{ex} bdeu4 < 1", _rows_by_key(ex)[("bdeu", 4.0, 1000)].ratio < 1.0))
    for ex in (6, 7, 8, 9):
        by = _rows_by_key(ex)
        for a0 in (0.01, 1.0, 4.0):
            checks.append((f"ex{ex} bdeu{a0:g} < 1", by[("bdeu", a0, 1000)].ratio < 1.0))

    by10 = _rows_by_key(10)
    for metric, a0 in (("bdeu", 0.01), ("bdeu", 1.0), ("bdeu", 4.0), ("k2", None), ("gu", None)):
        first = by10[(metric, a0, 100)].ratio
        last = by10[(metric, a0, 2000)].ratio
        checks.append((f"ex10 {metric}{a0 or ''} shrinks", last < first))

    failed = [name for name, ok in checks if not ok]
    ok = not failed
    _report(7, ok, f"{len(checks)} directional checks on examples 1-10" + (f"; failed: {failed}" if failed else ""))
    assert ok, failed


def test_criterion_08_alpha0_sweep_quantities():
    """Sweep maxima and the large-alpha0 regime on the skewed pair."""
    rows = run_example(EXAMPLES[11])
    best = next(r for r in rows if r.metric == "bdeu_max" and r.n == 1000)
    max_ok = abs(best.ratio - 1.9) <= 0.3

    shifted = ExampleSpec(0, ((0.999, 0.001), (0.9, 0.1)), (1000,), sweep=ALPHA0_GRID)
    shifted_max = next(r for r in run_example(shifted) if r.metric == "bdeu_max")
    shifted_log10 = shifted_max.log_ratio / math.log(10.0)
    shifted_ok = abs(shifted_log10 - 26.0) <= 2.0

    tail_ok = all(
        r.ratio > 1.0
        for r in rows
        if r.metric == "bdeu_sweep" and r.n in (1000, 2000) and r.alpha0 > 250.0
    )

    ok = max_ok and shifted_ok and tail_ok
    _report(
        8,
        ok,
        f"max ratio {best.ratio:.3f} (want 1.9 +- 0.3); "
        f"shifted-marginal log10 max {shifted_log10:.2f} (want 26 +- 2); "
        f"ratio > 1 for all alpha0 > 250 at N in (1000, 2000): {tail_ok}",
    )
    assert ok


# Standard ALARM families (Beinlich et al., 1989): child -> parents; the
# twelve roots map to ().  46 arcs over 37 variables.
ALARM_FAMILIES = {
    "HYPOVOLEMIA": (),
    "LVFAILURE": (),
    "ERRLOWOUTPUT": (),
    "ERRCAUTER": (),
    "INSUFFANESTH": (),
    "ANAPHYLAXIS": (),
    "KINKEDTUBE": (),
    "FIO2": (),
    "PULMEMBOLUS": (),
    "INTUBATION": (),
    "DISCONNECT": (),
    "MINVOLSET": (),
    "HISTORY": ("LVFAILURE",),
    "LVEDVOLUME": ("HYPOVOLEMIA", "LVFAILURE"),
    "CVP": ("LVEDVOLUME",),
    "PCWP": ("LVEDVOLUME",),
    "STROKEVOLUME": ("HYPOVOLEMIA", "LVFAILURE"),
    "TPR": ("ANAPHYLAXIS",),
    "PAP": ("PULMEMBOLUS",),
    "SHUNT": ("PULMEMBOLUS", "INTUBATION"),
    "VENTMACH": ("MINVOLSET",),
    "VENTTUBE": ("DISCONNECT", "VENTMACH"),
    "PRESS": ("INTUBATION", "KINKEDTUBE", "VENTTUBE"),
    "VENTLUNG": ("INTUBATION", "KINKEDTUBE", "VENTTUBE"),
    "MINVOL": ("INTUBATION", "VENTLUNG"),
    "VENTALV": ("INTUBATION", "VENTLUNG"),
    "PVSAT": ("FIO2", "VENTALV"),
    "ARTCO2": ("VENTALV",),
    "EXPCO2": ("ARTCO2", "VENTLUNG"),
    "SAO2": ("PVSAT", "SHUNT"),
    "CATECHOL": ("TPR", "SAO2", "INSUFFANESTH", "ARTCO2"),
    "HR": ("CATECHOL",),
    "HRBP": ("ERRLOWOUTPUT", "HR"),
    "HREKG": ("ERRCAUTER", "HR"),
    "HRSAT": ("ERRCAUTER", "HR"),
    "CO": ("HR", "STROKEVOLUME"),
    "BP": ("CO", "TPR"),
}
PUBLISHED_SEPARATED = 300


def _ancestors(n, edges):
    """``reach[i, j]`` is 1.0 when j is an ancestor of i (each node its own)."""
    reach = np.eye(n)
    for a, b in edges:
        reach[b, a] = 1.0
    while True:
        grown = np.minimum(reach @ reach, 1.0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _no_common_ancestor_count(reach):
    """Unordered pairs with disjoint ancestor sets (= marginally d-separated)."""
    # reach @ reach.T counts common ancestors; the diagonal is never 0.
    return int(np.count_nonzero(reach @ reach.T == 0)) // 2


def _acyclic(reach):
    return np.array_equal(reach * reach.T, np.eye(len(reach)))


def _one_arc_variant_counts(n, edges):
    """Separated-pair counts of every DAG one arc away from ``edges``."""
    counts = {"delete": set(), "reverse": set(), "add": set()}
    for p, c in edges:
        rest = edges - {(p, c)}
        counts["delete"].add(_no_common_ancestor_count(_ancestors(n, rest)))
        reach = _ancestors(n, rest | {(c, p)})
        if _acyclic(reach):
            counts["reverse"].add(_no_common_ancestor_count(reach))
    reach = _ancestors(n, edges)
    for a, b in itertools.permutations(range(n), 2):
        if (a, b) in edges or (b, a) in edges or reach[a, b]:
            continue  # already adjacent, or b is an ancestor of a: a cycle
        # a -> b makes a's ancestors ancestors of b and its descendants.
        grown = np.maximum(reach, np.outer(reach[:, b], reach[a, :]))
        counts["add"].add(_no_common_ancestor_count(grown))
    return counts


def test_criterion_09_alarm_structure_facts(alarm):
    """The study network is ALARM, and its negative pool is exact.

    The 46 arcs match the standard ALARM family list; the marginally
    d-separated pairs (the pool the ROC study draws negatives from) equal
    what the brute-force path enumerator finds over all 666 pairs.  The
    original experiment reports 300 such pairs; ALARM gives 365, and no
    DAG one arc away from it gives 300, so that figure is printed as an
    open discrepancy, not asserted.
    """
    s = alarm.net.structure
    names = [v.name for v in s.variables]
    edges = set(s.arcs())
    want_arcs = {(p, c) for c, ps in ALARM_FAMILIES.items() for p in ps}
    got_arcs = {(names[p], names[c]) for p, c in edges}
    structure_ok = set(names) == set(ALARM_FAMILIES) and got_arcs == want_arcs

    separated = set(marginally_d_separated_pairs(alarm.net))
    oracle = {
        (a, b)
        for a, b in itertools.combinations(range(s.n), 2)
        if d_separated_brute(s.n, edges, a, b, ())
    }
    reach = _ancestors(s.n, edges)
    ancestor_count = _no_common_ancestor_count(reach)
    variants = _one_arc_variant_counts(s.n, edges)
    no_one_arc_300 = all(PUBLISHED_SEPARATED not in v for v in variants.values())

    ok = (
        structure_ok
        and separated == oracle
        and ancestor_count == len(oracle)
        and no_one_arc_300
    )
    spans = ", ".join(f"{k} {min(v)}-{max(v)}" for k, v in variants.items())
    _report(
        9,
        ok,
        f"{len(got_arcs)} arcs = ALARM: {structure_ok}; marginally d-separated "
        f"pairs = {len(separated)}, brute-force oracle = {len(oracle)}, "
        f"no common ancestor = {ancestor_count}; published {PUBLISHED_SEPARATED} "
        f"(open discrepancy; one-arc variants give {spans}, "
        f"{'none' if no_one_arc_300 else 'some'} of them {PUBLISHED_SEPARATED})",
    )
    assert structure_ok, sorted(got_arcs ^ want_arcs)
    assert separated == oracle, sorted(separated ^ oracle)
    assert ancestor_count == len(oracle)
    assert no_one_arc_300, variants


def _bdeu4_gu_gap_by_size(alarm_net, reps, jobs):
    result = run_alarm_experiment(
        alarm_net,
        reps=reps,
        metrics=(MetricSpec.bdeu(4.0), MetricSpec.gu()),
        seed=42,
        jobs=jobs,
    )
    mean = {(s.metric, s.alpha0, s.n): s.mean_auc for s in result.summaries}
    return {
        n: mean[("bdeu", 4.0, n)] - mean[("gu", None, n)]
        for n in (5, 10, 20, 40, 80, 160)
    }


def test_criterion_10_alarm_roc_dominance(alarm):
    """BDeu(4) never trails GU in mean AUC; gap peaks near N=20."""
    jobs = max(1, min(4, os.cpu_count() or 1))
    gaps = _bdeu4_gu_gap_by_size(alarm.net, reps=25, jobs=jobs)
    dominance = all(g >= 0.0 for g in gaps.values())
    peak = max(gaps, key=gaps.get)
    detail = (
        "mean AUC(BDeu4) - mean AUC(GU) by N: "
        + ", ".join(f"{n}: {g:+.4f}" for n, g in gaps.items())
        + f"; peak at N={peak}"
    )
    _report(10, dominance, detail)
    if peak != 20:
        warnings.warn(
            f"BDeu4-GU AUC gap peaks at N={peak}, not the published N=20 "
            "(sampling-sensitive; reported as a warning only)"
        )
    assert dominance, gaps


@pytest.mark.full
def test_criterion_10_full_scale(alarm):
    """Replication-scale rerun: 100 replicates, all sizes, under 10 minutes."""
    start = time.monotonic()
    gaps = _bdeu4_gu_gap_by_size(alarm.net, reps=100, jobs=max(1, os.cpu_count() or 1))
    elapsed = time.monotonic() - start
    dominance = all(g >= 0.0 for g in gaps.values())
    peak = max(gaps, key=gaps.get)
    detail = (
        "reps=100: "
        + ", ".join(f"{n}: {g:+.4f}" for n, g in gaps.items())
        + f"; peak at N={peak}; {elapsed:.0f}s"
    )
    _report(10, dominance and elapsed < 600.0, detail)
    if peak != 20:
        warnings.warn(
            f"full-scale BDeu4-GU AUC gap peaks at N={peak}, not the published N=20"
        )
    assert dominance, gaps
    assert elapsed < 600.0


def test_criterion_11_cli_determinism(tmp_path, capsys, monkeypatch):
    """bench and roc rewrite byte-identical CSVs on a second run; roc's
    on one usable CPU (in-process) and on two (a pool)."""
    bench = []
    for name in ("b1.csv", "b2.csv"):
        path = tmp_path / name
        assert main(["bench", "--example", "10", "--out", str(path)]) == 0
        bench.append(path.read_bytes())

    roc_args = ["roc", "--sizes", "5,10", "--reps", "3", "--metrics", "bdeu4,gu", "--seed", "7"]
    roc = []
    for cpus in (1, 2):
        monkeypatch.setattr(rocstats, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([*roc_args, "--out", str(out)]) == 0
        roc.append(
            ((out / "auc_summary.csv").read_bytes(), (out / "mean_roc.csv").read_bytes())
        )
    capsys.readouterr()  # swallow CLI chatter; only the artifacts matter

    ok = bench[0] == bench[1] and roc[0] == roc[1]
    _report(11, ok, "bench and roc CSV outputs byte-identical across reruns and CPU counts")
    assert ok
