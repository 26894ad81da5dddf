"""Traced run: each workload's CLI path in one process, a span per layer call.

The traced run is the plain single-process baseline behind the per-layer
metrics.  It calls the public functions of ``bnscore``'s modules in the
order the CLI calls them and wraps each call in a span (``spans.py``);
nothing inside ``src/bnscore`` is instrumented.  One pass runs the
pipelines of all four workloads, because every per-layer metric is
defined on the workload whose end-to-end numbers it should move
(see README.md).  The ``roc`` pipelines run at fewer replicates than the
timed workloads so that a pass fits in one run.

Interpreter start-up and ``import bnscore`` cannot be traced in-process;
they are timed in fresh child interpreters.  The traced ``roc`` results
must equal the CLI's to 1e-12 and an untraced ``run_alarm_experiment``
exactly, so the trace measures the same program.
"""

from __future__ import annotations

import csv
import io
import pickle
import statistics
import time
from dataclasses import replace
from pathlib import Path

from bnscore import genbench, model, netio, rocstats, scoring

from spans import Recorder
from workloads import LN10, WORKLOADS, alarm_file, dsep_query, metric_spec

LAYERS = ("cli", "netio", "genbench", "model", "scoring", "rocstats")
#: The workloads as the traced pass runs them: the ``roc`` ones at fewer
#: replicates per size, so that a pass fits in one run.
TRACED = {
    name: replace(wl, reps=5) if hasattr(wl, "reps") else wl
    for name, wl in WORKLOADS.items()
}
#: Fresh interpreters per start-up probe; the median is reported.
PROBES = 3


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _read(rec: Recorder, path: Path) -> str:
    with rec.span("cli.read_file"):
        return path.read_text()


def _parse_network(rec: Recorder, path: Path) -> netio.NetworkDocument:
    text = _read(rec, path)
    with rec.span("netio.parse_network"):
        return netio.parse_network(text)


# -- pipelines: each mirrors one CLI command sequence -------------------------


def roc_pipeline(rec: Recorder, root: Path, wl, seed: int):
    """``bnscore roc`` with ``--jobs 1``: the body of ``run_alarm_experiment``."""
    net = _parse_network(rec, alarm_file(root)).net
    metrics = [metric_spec(token) for token in wl.metrics]
    with rec.span("rocstats.enumerate_pair_sets"):
        pairs = rocstats.enumerate_pair_sets(net, 46, seed)
    keys = (*pairs.positives, *pairs.negatives)
    n_pos = len(pairs.positives)
    arity = [v.arity for v in net.structure.variables]
    results = []
    for n in wl.sizes:
        for r in range(wl.reps):
            rid = f"n={n}/rep={r}"
            with rec.span("replicate", rid):
                with rec.span("genbench.forward_sample", rid):
                    data = genbench.forward_sample(net, n, seed + r)
                with rec.span("model.joint_cell_counts", rid):
                    tables = [
                        model.joint_cell_counts((x, y), data).reshape(arity[x], arity[y])
                        for x, y in keys
                    ]
                per_metric = []
                for metric in metrics:
                    posts = []
                    for table in tables:
                        with rec.span("scoring.arc_posterior_from_counts", rid):
                            posts.append(scoring.arc_posterior_from_counts(metric, table))
                    scored = [rocstats.ScoredPair(x, y, i < n_pos, p)
                              for i, ((x, y), p) in enumerate(zip(keys, posts))]
                    with rec.span("rocstats.auc_from_pairs", rid):
                        per_metric.append(rocstats.auc_from_pairs(scored))
                results.append(per_metric)
    summaries, curves = [], {}
    with rec.span("rocstats.aggregate"):
        for si, n in enumerate(wl.sizes):
            per_rep = results[si * wl.reps:(si + 1) * wl.reps]
            for mi, metric in enumerate(metrics):
                mean, lo, hi = rocstats.t_confidence_interval([rep[mi][0] for rep in per_rep])
                summaries.append(rocstats.AucSummary(
                    metric.kind, metric.alpha0, n, mean, lo, hi, wl.reps))
                curves[(metric.label, n)] = rocstats.mean_roc([rep[mi][1] for rep in per_rep])
    with rec.span("rocstats.write_csv"):
        rocstats.auc_summary_csv(summaries)
        rocstats.mean_roc_csv(curves)
    return net, metrics, pairs, tuple(summaries)


def _sample(rec: Recorder, root: Path, out: Path, n_cases: int, seed: int):
    """``bnscore sample``."""
    net = _parse_network(rec, alarm_file(root)).net
    with rec.span("genbench.forward_sample"):
        data = genbench.forward_sample(net, n_cases, seed)
    with rec.span("netio.write_dataset"):
        text = netio.write_dataset(data)
    with rec.span("cli.write_file"):
        out.write_text(text)
    return data, len(text.encode())


def _score(rec: Recorder, root: Path, path: Path, token: str) -> float:
    """``bnscore score --net ALARM``: the log10 score it prints."""
    structure = _parse_network(rec, alarm_file(root)).structure
    text = _read(rec, path)
    with rec.span("netio.parse_dataset"):
        data = netio.parse_dataset(text, structure.variables)
    with rec.span("scoring.log_score"):
        return scoring.log_score(metric_spec(token), structure, data) / LN10


def sample_score_pipeline(rec: Recorder, root: Path, work: Path, wl, seed: int):
    """``sample`` then one ``score`` per metric, as in the round-trip workloads."""
    path = work / "traced.csv"
    data, n_bytes = _sample(rec, root, path, wl.n_cases, seed)
    scores = [_score(rec, root, path, m) for m in wl.metrics]
    return data, n_bytes, scores


def quick_pipeline(rec: Recorder, root: Path, work: Path, wl, seed: int):
    """Every ``bench`` example, both ``dsep`` queries, a small round trip."""
    for i in sorted(genbench.EXAMPLES):
        with rec.span("genbench.run_example"):
            rows = genbench.run_example(genbench.EXAMPLES[i])
        with rec.span("genbench.ratio_table_csv"):
            genbench.ratio_table_csv(rows)
    structure = _parse_network(rec, alarm_file(root)).structure
    separated = 0
    with rec.span("rocstats.marginally_d_separated_pairs"):
        for a in range(structure.n):
            for b in range(a + 1, structure.n):
                with rec.span("model.d_separated"):
                    separated += model.d_separated(structure, a, b, ())
    structure = _parse_network(rec, alarm_file(root)).structure
    x, y, given = dsep_query(root, seed)
    with rec.span("model.d_separated_given"):
        model.d_separated(structure, structure.index_of(x), structure.index_of(y),
                          [structure.index_of(g) for g in given])
    sample_score_pipeline(rec, root, work, wl, seed)
    return separated


# -- metrics from spans --------------------------------------------------------


def _spans(rec: Recorder, name: str):
    return [s for s in rec.closed() if s.name == name]


def _total(rec: Recorder, name: str) -> float:
    return sum(s.duration for s in _spans(rec, name))


def _busy(rec: Recorder) -> float:
    return sum(s.duration for s in rec.closed() if s.parent is None)


def layer_self_times(rec: Recorder) -> dict[str, float]:
    """Self time per layer; spans of no layer (pipeline, replicate) are ``unaccounted``."""
    out = dict.fromkeys((*LAYERS, "unaccounted"), 0.0)
    selfs = rec.self_times()
    for s in rec.closed():
        out[layer(s.name) if layer(s.name) in LAYERS else "unaccounted"] += selfs[s.id]
    return out


def run_pass(root: Path, work: Path, seed: int, errors: list[list[str]], workloads) -> dict:
    """One traced pass over all four pipelines, plus untraced ``roc`` twins.

    Appends one error list per check to ``errors``; returns per-layer
    values, exact counts, and the recorders.
    """
    recs = {name: Recorder() for name in workloads}
    untraced = traced_experiment = 0.0
    summaries, counts = {}, {}
    for name in ("roc-paper", "roc-largen"):
        wl, rec = workloads[name], recs[name]
        with rec.span("pipeline"):
            net, metrics, pairs, summaries[name] = roc_pipeline(rec, root, wl, seed)
        start = time.perf_counter()
        plain = rocstats.run_alarm_experiment(net, wl.sizes, wl.reps, metrics, seed, jobs=1)
        untraced += time.perf_counter() - start
        traced_experiment += sum(_total(rec, n) for n in (
            "rocstats.enumerate_pair_sets", "replicate", "rocstats.aggregate"))
        errors.append([] if plain.summaries == summaries[name] else
                      [f"{name}: traced summaries differ from run_alarm_experiment"])
        if name == "roc-paper":
            counts["rocstats.n_candidates"] = pairs.n_candidates
            task = (net, wl.sizes[0], seed, pairs, tuple(metrics))
            counts["rocstats.task_bytes"] = len(pickle.dumps(task))
            counts["rocstats.pool_tasks"] = len(wl.sizes) * wl.reps

    wl, rt = workloads["cli-roundtrip"], recs["cli-roundtrip"]
    with rt.span("pipeline"):
        data, n_bytes, scores = sample_score_pipeline(rt, root, work, wl, seed)
    structure = netio.parse_network(alarm_file(root).read_text()).structure
    want = [scoring.log_score(metric_spec(m), structure, data) / LN10 for m in wl.metrics]
    errors.append([] if scores == want else
                  [f"cli-roundtrip: scores {scores} after the CSV round trip, want {want}"])

    q = recs["cli-quick"]
    with q.span("pipeline"):
        separated = quick_pipeline(q, root, work, workloads["cli-quick"], seed)
    errors.append([] if separated == counts["rocstats.n_candidates"] else
                  [f"cli-quick: {separated} separated pairs, enumerate_pair_sets found "
                   f"{counts['rocstats.n_candidates']}"])

    rp, rl = recs["roc-paper"], recs["roc-largen"]
    reps_p, reps_l = len(_spans(rp, "replicate")), len(_spans(rl, "replicate"))
    arcs = [s.duration for s in _spans(rp, "scoring.arc_posterior_from_counts")]
    dsep = [s.duration for s in _spans(q, "model.d_separated")]
    counts.update({
        "model.d_separated_calls": len(dsep),
        "scoring.posteriors_per_rep": len(arcs) // reps_p,
        "netio.cells": data.n_cases * len(data.variables),
        "netio.csv_bytes": n_bytes,
    })
    parse_network = [s.duration for r in recs.values() for s in _spans(r, "netio.parse_network")]
    sampling = _total(rl, "genbench.forward_sample") + _total(rl, "model.joint_cell_counts")
    values = {
        "netio.parse_network_ms": statistics.median(parse_network) * 1e3,
        "netio.write_dataset_s": _total(rt, "netio.write_dataset"),
        "netio.parse_dataset_s": statistics.median(
            s.duration for s in _spans(rt, "netio.parse_dataset")),
        "genbench.forward_sample_ms": _total(rl, "genbench.forward_sample") / reps_l * 1e3,
        "genbench.run_example_ms": statistics.fmean(
            s.duration for s in _spans(q, "genbench.run_example")) * 1e3,
        "model.joint_cell_counts_ms": _total(rl, "model.joint_cell_counts") / reps_l * 1e3,
        "model.marginal_dsep_ms": sum(dsep) * 1e3,
        "scoring.score_ms": sum(arcs) / reps_p * 1e3,
        "scoring.arc_posterior_us": statistics.fmean(arcs) * 1e6,
        "scoring.log_score_ms": statistics.fmean(
            s.duration for s in _spans(rt, "scoring.log_score")) * 1e3,
        "rocstats.auc_from_pairs_ms": _total(rp, "rocstats.auc_from_pairs") / reps_p * 1e3,
        "rocstats.aggregate_ms": _total(rp, "rocstats.aggregate") * 1e3,
        "rocstats.enumerate_pair_sets_ms": _total(rp, "rocstats.enumerate_pair_sets") * 1e3,
        "roc-paper.scoring_share": sum(arcs) / _total(rp, "replicate"),
        "roc-largen.sample_count_share": sampling / _total(rl, "replicate"),
        "cli-roundtrip.netio_share": layer_self_times(rt)["netio"] / _busy(rt),
        "trace.overhead_frac": traced_experiment / untraced - 1.0,
        "trace.unaccounted_frac": sum(layer_self_times(r)["unaccounted"] for r in recs.values())
        / sum(_busy(r) for r in recs.values()),
    }
    return {
        "values": values,
        "counts": counts,
        "busy_s": {name: _busy(r) for name, r in recs.items()},
        "layer_self_s": {name: layer_self_times(r) for name, r in recs.items()},
        "summaries": summaries,
        "recorders": recs,
    }


UNITS = {"_ms": "ms", "_s": "s", "_us": "us", "_share": "fraction", "_frac": "fraction"}


def _unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def _cli_errors(name: str, res, summary_csv: str, summaries) -> list[str]:
    """The traced run must reproduce the CLI's mean AUCs to 1e-12."""
    if not res.ok:
        return [f"{name} CLI at the traced size: exit {res.returncode}"]
    rows = list(csv.DictReader(io.StringIO(summary_csv)))
    if len(rows) != len(summaries):
        return [f"{name}: CLI wrote {len(rows)} summaries, traced run {len(summaries)}"]
    return [
        f"{name} n={s.n} {s.metric}: CLI mean_auc {row['mean_auc']}, traced {s.mean_auc!r}"
        for row, s in zip(rows, summaries)
        if not abs(float(row["mean_auc"]) - s.mean_auc) <= 1e-12
    ]


def count_errors(root: Path, workloads, counts: dict) -> list[list[str]]:
    """The exact counts that follow from ALARM and the workload sizes."""
    n_vars = len(netio.parse_network(alarm_file(root).read_text()).structure.variables)
    expected = {
        "model.d_separated_calls": n_vars * (n_vars - 1) // 2,
        "scoring.posteriors_per_rep": 2 * 46 * len(workloads["roc-paper"].metrics),
        "netio.cells": workloads["cli-roundtrip"].n_cases * n_vars,
    }
    return [[] if counts[k] == v else [f"{k} = {counts[k]}, want {v}"]
            for k, v in expected.items()]


def run(runner, seed: int, seconds: float, spans_path: Path) -> dict:
    """Start-up probes, the CLI at the traced ``roc`` sizes, then traced passes.

    Passes repeat while half the median pass still fits in ``seconds``; each
    per-layer value is the median over passes, and every count must
    repeat exactly from pass to pass.
    """
    root, work = runner.root, runner.work
    probes = {code: [runner.python("-c", code) for _ in range(PROBES)]
              for code in ("pass", "import bnscore")}
    errors = [[] if p.ok else [f"probe {p.args}: exit {p.returncode}"]
              for runs in probes.values() for p in runs]
    interpreter_s = statistics.median(p.wall_s for p in probes["pass"])
    import_s = statistics.median(p.wall_s for p in probes["import bnscore"]) - interpreter_s

    cli = {}
    for name in ("roc-paper", "roc-largen"):
        out = work / name
        res = runner.cli(*TRACED[name].args(seed, out))
        cli[name] = (res, (out / "auc_summary.csv").read_text() if res.ok else "")

    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(root, work, seed, errors, TRACED))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            break

    first = passes[0]
    for name, (res, text) in cli.items():
        errors.append(_cli_errors(name, res, text, first["summaries"][name]))
    for p in passes[1:]:
        errors.append([] if p["counts"] == first["counts"] else
                      [f"counts changed between passes: {first['counts']} -> {p['counts']}"])
    counts = first["counts"]
    errors += count_errors(root, TRACED, counts)
    values = {k: statistics.median(p["values"][k] for p in passes) for k in first["values"]}
    busy = {k: statistics.median(p["busy_s"][k] for p in passes) for k in first["busy_s"]}
    per_command = interpreter_s + import_s
    quick = TRACED["cli-quick"]
    n_quick = len(genbench.EXAMPLES) + 2 + 1 + len(quick.metrics)
    values.update({
        "cli.interpreter_start_s": interpreter_s,
        "import.bnscore_s": import_s,
        "rocstats.pool_overhead_cpu_s": cli["roc-paper"][0].cpu_s - per_command - busy["roc-paper"],
        "cli-quick.import_share": n_quick * per_command / (n_quick * per_command + busy["cli-quick"]),
    })

    with open(spans_path, "w") as fh:
        for i, p in enumerate(passes):
            for name, rec in p["recorders"].items():
                rec.write(fh, pass_index=i, pipeline=name)
    metrics = {k: (v, _unit(k)) for k, v in sorted(values.items())}
    metrics.update({k: (v, "bytes" if k.endswith("bytes") else "count")
                    for k, v in sorted(counts.items())})
    return {
        "metrics": metrics,
        "errors": errors,
        "counts": {"passes": len(passes), "traced_reps": TRACED["roc-paper"].reps},
        "busy_s": busy,
        "layer_self_s": first["layer_self_s"],
        "cli_roc_at_traced_size": {
            name: {"wall_s": res.wall_s, "cpu_s": res.cpu_s} for name, (res, _) in cli.items()},
    }
