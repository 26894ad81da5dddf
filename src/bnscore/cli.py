"""Command-line front end.

Subcommands: score, bench, sample, roc, dsep.  Exit codes: 0 on success,
2 when the command cannot read, parse or write a file, 3 on validation or
usage errors and on tables or samples too large for memory.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import genbench, netio, rocstats, scoring
from .model import ModelError, d_separated
from .scoring import MetricSpec

__all__ = ["main"]

_PARSE_ERRORS = (netio.NetworkSyntaxError, netio.DatasetFormatError)
_VALIDATION_ERRORS = (
    ModelError,
    scoring.DomainError,
    scoring.NotCliqueDecomposable,
    rocstats.DegenerateInput,
    rocstats.InsufficientNegatives,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _non_negative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _size_list(text: str) -> list[int]:
    """Comma-separated positive dataset sizes, e.g. 5,10,20."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens or not all(tok.isdecimal() and int(tok) > 0 for tok in tokens):
        raise argparse.ArgumentTypeError(f"expected positive integer sizes, got {text!r}")
    return [int(tok) for tok in tokens]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _metric_from_args(parser, kind: str, alpha0) -> MetricSpec:
    if kind == "bdeu":
        if alpha0 is None:
            parser.error("--metric bdeu requires --alpha0")
        return MetricSpec.bdeu(alpha0)
    if alpha0 is not None:
        parser.error(f"--alpha0 only applies to --metric bdeu, not {kind}")
    return MetricSpec(kind)


def _parse_metric_list(parser, text: str) -> list[MetricSpec]:
    """Comma-separated metric tokens: k2, gu, or bdeu<alpha0> (e.g. bdeu4)."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in ("k2", "gu"):
            out.append(MetricSpec(token))
        elif token.startswith("bdeu") and len(token) > 4:
            try:
                out.append(MetricSpec.bdeu(float(token[4:])))
            except ValueError:
                parser.error(f"bad metric token {token!r}")
        else:
            parser.error(
                f"bad metric token {token!r}; expected k2, gu, or bdeu<alpha0>"
            )
    return out


def cmd_score(parser, args) -> int:
    metric = _metric_from_args(parser, args.metric, args.alpha0)
    if args.net:
        structure = netio.parse_network(_read_text(args.net)).structure
    else:
        structure = netio.parse_structure(_read_text(args.structure))
    data = netio.parse_dataset(_read_text(args.data), structure.variables)
    value = scoring.log_score(metric, structure, data) / math.log(10.0)
    print(f"log10_score={value:.12g}")
    return 0


def cmd_bench(parser, args) -> int:
    if args.example not in genbench.EXAMPLES:
        parser.error(
            f"unknown example {args.example}; choose from 1..{len(genbench.EXAMPLES)}"
        )
    rows = genbench.run_example(genbench.EXAMPLES[args.example])
    table = genbench.ratio_table_csv(rows)
    summary_stream = sys.stdout
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
        summary_stream = sys.stderr
    for row in rows:
        if row.metric in ("bdeu_sweep",):
            continue
        a0 = f" alpha0={row.alpha0:g}" if row.alpha0 is not None else ""
        print(
            f"example {row.example} {row.metric}{a0} n={row.n}: "
            f"ratio={row.ratio:.6g} log10={row.log10_ratio:.6g}",
            file=summary_stream,
        )
    return 0


def cmd_sample(parser, args) -> int:
    doc = netio.parse_network(_read_text(args.net))
    data = genbench.forward_sample(doc.net, args.n, args.seed)
    # Block by block, so the whole CSV text is never held: the same text
    # write_dataset(data) joins.
    with open(args.out, "w") as out:
        out.writelines(netio._dataset_csv_blocks(data))
    print(f"wrote {data.n_cases} cases to {args.out}")
    return 0


def cmd_roc(parser, args) -> int:
    net_path = args.net if args.net else str(netio.alarm_path())
    doc = netio.parse_network(_read_text(net_path))
    metrics = _parse_metric_list(parser, args.metrics)
    # Made before the study, so an unusable --out fails before the work.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = rocstats.run_alarm_experiment(
        doc.net,
        sizes=args.sizes,
        reps=args.reps,
        metrics=metrics,
        seed=args.seed,
        jobs=args.jobs,
    )
    (out_dir / "auc_summary.csv").write_text(
        rocstats.auc_summary_csv(result.summaries)
    )
    (out_dir / "mean_roc.csv").write_text(rocstats.mean_roc_csv(result.mean_curves))
    for s in result.summaries:
        a0 = f" alpha0={s.alpha0:g}" if s.alpha0 is not None else ""
        print(
            f"{s.metric}{a0} n={s.n}: mean_auc={s.mean_auc:.4f} "
            f"ci=[{s.ci_low:.4f}, {s.ci_high:.4f}] reps={s.reps}"
        )
    return 0


def cmd_dsep(parser, args) -> int:
    doc = netio.parse_network(_read_text(args.net))
    structure = doc.structure
    if args.count_marginal:
        count = len(rocstats.marginally_d_separated_pairs(doc.net))
        print(f"marginally_d_separated_pairs={count}")
        return 0
    if args.x is None or args.y is None:
        parser.error("--x and --y are required unless --count-marginal is given")
    given = []
    if args.given:
        given = [
            structure.index_of(name.strip())
            for name in args.given.split(",")
            if name.strip()
        ]
    separated = d_separated(
        structure, structure.index_of(args.x), structure.index_of(args.y), given
    )
    print(f"d-separated={'true' if separated else 'false'}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bnscore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="log10 score of a structure on a dataset")
    p.add_argument("--metric", required=True, choices=["k2", "bdeu", "gu"])
    p.add_argument("--alpha0", type=float)
    p.add_argument("--data", required=True, help="dataset CSV path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--net", help="network file (CPTs required)")
    src.add_argument("--structure", help="network file (CPT lines ignored)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="ratio table for one benchmark example")
    p.add_argument("--example", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sample", help="forward-sample a dataset from a network")
    p.add_argument("--net", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--out", required=True, help="dataset CSV output path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("roc", help="arc-detection ROC study on a known network")
    p.add_argument("--net", help="network file (default: bundled ALARM)")
    p.add_argument("--sizes", type=_size_list, default=list(rocstats.DEFAULT_SIZES))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument(
        "--metrics",
        default=",".join(m.label for m in rocstats.DEFAULT_METRICS),
        help="comma-separated: k2, gu, bdeu<alpha0>",
    )
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument(
        "--jobs", type=_positive_int, default=rocstats._usable_cpus(),
        help="worker processes; results do not depend on this",
    )
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("dsep", help="d-separation queries against a network")
    p.add_argument("--net", required=True)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--given", help="comma-separated conditioning variable names")
    p.add_argument(
        "--count-marginal",
        action="store_true",
        help="print the number of marginally d-separated unordered pairs",
    )
    p.set_defaults(func=cmd_dsep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (*_PARSE_ERRORS, OSError) as exc:
        # Reads are reported by _read_text; an OSError left is a file or
        # directory the command could not write.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # A MemoryError raised by the interpreter itself has no message.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
