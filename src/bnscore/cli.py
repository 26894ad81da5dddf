"""Command-line front end.

Subcommands: score, bench, sample, roc, dsep.  Exit codes: 0 on success,
2 when the command cannot read, parse or write a file, 3 on validation or
usage errors and on tables or samples too large for memory.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import sys
from pathlib import Path

__all__ = ["main"]

# The bnscore modules each command runs.  main loads them, and no others,
# before the command starts.
_COMMAND_MODULES = {
    "score": ("model", "netio", "scoring"),
    "bench": ("model", "scoring", "genbench"),
    "sample": ("model", "netio", "scoring", "genbench"),
    "roc": ("model", "netio", "scoring", "genbench", "rocstats"),
    "dsep": ("model", "netio"),
}

# The error classes main maps to exit code 2 (a file the command cannot
# parse) and to exit code 3 (invalid input), by the module that defines them.
_PARSE_ERRORS = {"netio": ("NetworkSyntaxError", "DatasetFormatError")}
_VALIDATION_ERRORS = {
    "model": ("ModelError",),
    "scoring": ("DomainError",),
    "rocstats": ("DegenerateInput",),
}

# The digest modules hashlib falls back to when OpenSSL's _hashlib is absent.
_BUILTIN_DIGESTS = ("_md5", "_sha1", "_sha256", "_sha512", "_sha3", "_blake2")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


class _Commands(argparse._SubParsersAction):
    """Subcommands that get their arguments when they are named, so parsing
    loads only the modules of the command that runs."""

    def __call__(self, parser, namespace, values, option_string=None):
        command = self.choices[values[0]]
        if command.get_default("func") is None:
            _COMMANDS[values[0]][1](command)
        super().__call__(parser, namespace, values, option_string)


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


def _read(path: str, parse=lambda file: file.read()):
    """parse(the file at path, open as text); a read or decode failure exits 2."""
    try:
        with open(path) as lines:
            return parse(lines)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _errors(family: dict[str, tuple[str, ...]], modules) -> tuple[type, ...]:
    """The error classes of family that the named modules define."""
    return tuple(
        getattr(importlib.import_module(f"{__package__}.{module}"), name)
        for module in modules
        for name in family.get(module, ())
    )


def _import_numpy_random() -> None:
    """Import numpy.random without OpenSSL's libcrypto.

    numpy.random loads hashlib, through secrets and hmac, only to seed a
    generator from OS entropy; bnscore seeds every generator it makes, so
    the digests of hashlib's built-in modules serve, and the process maps
    about 3.4 MiB less.  The hashlib, hmac and _hashlib entries this import
    makes are dropped afterwards, so a later import hashlib loads OpenSSL
    as usual.  Where numpy.random or _hashlib is already loaded, or a
    built-in digest module is missing (hashlib would log its absence),
    numpy.random is left to load as it would.
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    if not all(importlib.util.find_spec(name) for name in _BUILTIN_DIGESTS):
        return
    loaded = set(sys.modules)
    sys.modules["_hashlib"] = None
    try:
        import numpy.random  # noqa: F401
    finally:
        for name in ("hashlib", "hmac", "_hashlib"):
            if name not in loaded:
                sys.modules.pop(name, None)


def cmd_score(parser, args) -> int:
    from . import netio, scoring
    from .model import _fmt

    try:
        metric = scoring.MetricSpec(args.metric, args.alpha0)
    except scoring.DomainError as exc:
        parser.error(str(exc))
    if args.net:
        structure = netio.parse_network(_read(args.net)).structure
    else:
        structure = netio.parse_structure(_read(args.structure))
    data = _read(args.data, lambda lines: netio.parse_dataset(lines, structure.variables))
    value = scoring.log_score(metric, structure, data) / math.log(10.0)
    print(f"log10_score={_fmt(value)}")
    return 0


def cmd_bench(parser, args) -> int:
    from . import genbench
    from .model import _fmt

    rows = genbench.run_example(genbench.EXAMPLES[args.example])
    table = genbench.ratio_table_csv(rows)
    summary_stream = sys.stdout
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
        summary_stream = sys.stderr
    for row in rows:
        if row.metric == "bdeu_sweep":
            continue
        a0 = f" alpha0={_fmt(row.alpha0)}" if row.alpha0 is not None else ""
        print(
            f"example {row.example} {row.metric}{a0} n={row.n}: "
            f"ratio={row.ratio:.6g} log10={row.log10_ratio:.6g}",
            file=summary_stream,
        )
    return 0


def cmd_sample(parser, args) -> int:
    from . import genbench, netio

    doc = netio.parse_network(_read(args.net))
    data = genbench.forward_sample(doc.net, args.n, args.seed)
    # Block by block, so the whole CSV text is never held: the same text
    # write_dataset(data) joins.
    with open(args.out, "w") as out:
        out.writelines(netio._dataset_csv_blocks(data))
    print(f"wrote {data.n_cases} cases to {args.out}")
    return 0


def cmd_roc(parser, args) -> int:
    from . import netio, rocstats
    from .model import _fmt
    from .scoring import MetricSpec

    doc = netio.parse_network(_read(args.net))
    metrics = [MetricSpec.parse(token.strip()) for token in args.metrics.split(",")]
    # Made before the study, so an unusable --out fails before the work.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = rocstats.run_alarm_experiment(
        doc.net,
        sizes=args.sizes,
        reps=args.reps,
        metrics=metrics,
        seed=args.seed,
        jobs=rocstats._usable_cpus(),
    )
    (out_dir / "auc_summary.csv").write_text(
        rocstats.auc_summary_csv(result.summaries)
    )
    (out_dir / "mean_roc.csv").write_text(rocstats.mean_roc_csv(result.mean_curves))
    for s in result.summaries:
        # alpha0 as auc_summary.csv writes it
        a0 = f" alpha0={_fmt(s.alpha0)}" if s.alpha0 is not None else ""
        print(
            f"{s.metric}{a0} n={s.n}: mean_auc={s.mean_auc:.4f} "
            f"ci=[{s.ci_low:.4f}, {s.ci_high:.4f}] reps={s.reps}"
        )
    return 0


def cmd_dsep(parser, args) -> int:
    from . import netio
    from .model import d_separated, marginally_d_separated_pairs

    if args.count_marginal and (args.x, args.y, args.given) != (None, None, None):
        parser.error("--count-marginal takes no --x, --y or --given")
    doc = netio.parse_network(_read(args.net))
    structure = doc.structure
    if args.count_marginal:
        count = len(marginally_d_separated_pairs(doc.net))
        print(f"marginally_d_separated_pairs={count}")
        return 0
    if args.x is None or args.y is None:
        parser.error("--x and --y are required unless --count-marginal is given")
    given = [
        structure.index_of(name.strip())
        for name in (args.given or "").split(",")
        if name.strip()
    ]
    separated = d_separated(
        structure, structure.index_of(args.x), structure.index_of(args.y), given
    )
    print(f"d-separated={'true' if separated else 'false'}")
    return 0


def _score_arguments(p) -> None:
    p.add_argument("--metric", required=True, choices=["k2", "bdeu", "gu"])
    p.add_argument("--alpha0", type=float)
    p.add_argument("--data", required=True, help="dataset CSV path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--net", help="network file (CPTs required)")
    src.add_argument("--structure", help="network file (CPT lines ignored)")
    p.set_defaults(func=cmd_score)


def _bench_arguments(p) -> None:
    from . import genbench

    p.add_argument(
        "--example", type=_positive_int, choices=sorted(genbench.EXAMPLES), required=True
    )
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_bench)


def _sample_arguments(p) -> None:
    p.add_argument("--net", required=True)
    p.add_argument("--n", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--out", required=True, help="dataset CSV output path")
    p.set_defaults(func=cmd_sample)


def _roc_arguments(p) -> None:
    from . import netio, rocstats

    p.add_argument(
        "--net", default=str(netio.alarm_path()), help="network file (default: bundled ALARM)"
    )
    p.add_argument("--sizes", type=_size_list, default=list(rocstats.DEFAULT_SIZES))
    p.add_argument("--reps", type=_positive_int, default=100)
    p.add_argument(
        "--metrics",
        default=",".join(m.label for m in rocstats.DEFAULT_METRICS),
        help="comma-separated: k2, gu, bdeu<alpha0>",
    )
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.set_defaults(func=cmd_roc)


def _dsep_arguments(p) -> None:
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


# Each command's help line, and the function that adds its arguments.
_COMMANDS = {
    "score": ("log10 score of a structure on a dataset", _score_arguments),
    "bench": ("ratio table for one benchmark example", _bench_arguments),
    "sample": ("forward-sample a dataset from a network", _sample_arguments),
    "roc": ("arc-detection ROC study on a known network", _roc_arguments),
    "dsep": ("d-separation queries against a network", _dsep_arguments),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="bnscore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)
    for command, (text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    modules = _COMMAND_MODULES[args.command]
    for module in modules:
        importlib.import_module(f"{__package__}.{module}")
    if argv is None:
        # The command owns the process.  Its random streams need none of
        # OpenSSL, and what its imports made lives until exit: move that
        # where no collection walks it, at exit or in a forked roc worker.
        # A caller passing argv keeps its own modules and collector state.
        if args.command in ("sample", "roc"):
            _import_numpy_random()
        gc.freeze()
    try:
        return args.func(args.parser, args)
    except (*_errors(_PARSE_ERRORS, modules), OSError) as exc:
        # Reads are reported by _read; an OSError left is a file or
        # directory the command could not write, or a roc worker that ended
        # without a result (ChildProcessError).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _errors(_VALIDATION_ERRORS, modules) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # A MemoryError raised by the interpreter itself has no message.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
