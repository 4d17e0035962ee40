"""Command-line front end: price, reduce, canonicalize, compare, tabulate, conform.

Gambles are read from JSON files in the documented wire format.  The
ambiguity premium is passed as log-odds with ``-c`` or as the implicit prior
probability with ``--rho``.  Text output rounds to 4 decimals; JSON output
keeps full double precision.

Exit status: 0 on success, 1 when the conformance suite finds a failing
law, 2 on argument, input or output errors, 141 (128 + SIGPIPE) when
stdout's reader closes it early.  ``demo-binomial`` writes its table in
batches of lines as it solves them, so an error mid-table exits 2 after
the batches before it (whole lines, in text and CSV).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import islice
from typing import Sequence

from .gambles import (
    GambleError,
    _document_leaves,
    _dump_flat,
    _leaf_likelihoods,
    _read_json,
    dump_gamble,
    gamble_from_json,
)
from .pricing import (
    MAX_PREMIUM,
    UtilityVector,
    _canonical_gamble,
    _leaf_pair,
    _leaf_vector,
    _require_premium,
    compare,
    format_price,
    logit,
    price_from_vector,
)

# binomial and conformance are imported inside the commands that run them,
# so no other command pays for compiling them at start-up.

_SYMBOL = {"greater": ">", "equal": "=", "less": "<"}


def _add_premium_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "-c", "--premium", type=float, default=0.0,
        help=f"ambiguity premium as log-odds, |c| <= {MAX_PREMIUM:g} (default 0: neutral)",
    )
    group.add_argument(
        "--rho", type=float, default=None,
        help="implicit prior in (0, 1); converted to a premium via logit",
    )


def _premium(args: argparse.Namespace) -> float:
    if args.rho is not None:
        return logit(args.rho)
    return args.premium


def _add_format_arg(parser: argparse.ArgumentParser, choices: Sequence[str]) -> None:
    parser.add_argument(
        "-f", "--format", choices=list(choices), default="text", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgamble",
        description="Price and compare likelihood gambles under an ambiguity premium.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="fair price of a gamble file")
    _add_premium_args(p)
    _add_format_arg(p, ("text", "json"))
    p.add_argument("file", help="gamble JSON file")

    p = sub.add_parser("reduce", help="flatten a gamble file to its normal form")
    p.add_argument("file", help="gamble JSON file")

    p = sub.add_parser("canonical", help="equivalent {alpha/1, beta/0} gamble")
    _add_premium_args(p)
    p.add_argument("file", help="gamble JSON file")

    p = sub.add_parser("compare", help="order two gamble files: prints >, =, or <")
    _add_premium_args(p)
    p.add_argument("file1", help="first gamble JSON file")
    p.add_argument("file2", help="second gamble JSON file")

    p = sub.add_parser("demo-binomial", help="price the bet on the next toss")
    _add_premium_args(p)
    _add_format_arg(p, ("text", "json", "csv"))
    p.add_argument("-m", "--trials", type=int, required=True, help="observed tosses")
    p.add_argument("-x", "--successes", type=int, default=None, help="one row only")

    p = sub.add_parser("conformance", help="replay the preference laws on random gambles")
    _add_premium_args(p)
    _add_format_arg(p, ("text", "json"))
    p.add_argument("--samples", type=int, default=500, help="instances per law")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--max-depth", type=int, default=4, help="gamble nesting bound")
    p.add_argument("--max-branching", type=int, default=4, help="prospects per node bound")

    return parser


# The file commands read nothing of a gamble but its leaf map, each constant
# and its likeliest path likelihood, so a valid file never becomes a Gamble.
# Any other file goes through the loader, which raises its first error in
# document order.


def _leaves(path: str) -> dict[float, float]:
    """The leaf map of a gamble file."""
    doc = _read_json(path)
    best = _document_leaves(doc)
    return _leaf_likelihoods(gamble_from_json(doc)) if best is None else best


def _cmd_price(args: argparse.Namespace) -> int:
    best = _leaves(args.file)
    c = _premium(args)
    value = price_from_vector(_leaf_vector(best, c), c)
    if args.format == "json":
        print(json.dumps(value))
    else:
        print(format_price(value))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    doc = _read_json(args.file)
    best = _document_leaves(doc)
    if best is None:  # a constant root reduces to itself, through the loader
        print(dump_gamble(gamble_from_json(doc)))
    else:
        del doc  # the largest object: freed before the flat text is built
        _dump_flat(best, sys.stdout)
        print()
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    best = _leaves(args.file)
    print(dump_gamble(_canonical_gamble(_leaf_vector(best, _premium(args)))))
    return 0


# compare reduces file2 in a forked child while it reduces file1, when both
# files have at least this many bytes and two CPUs are usable.  On a 2-vCPU
# VM, forking made compare on two 76 KB files 6-10 ms slower, and on files of
# 0.8-2.7 MB 11-31 % faster while the second CPU was free.
_MIN_FORK_BYTES = 1 << 20


def _cmd_compare(args: argparse.Namespace) -> int:
    def second() -> tuple[float, float]:  # file2's raw (alpha, beta)
        return _leaf_pair(_leaves(args.file2), _require_premium(_premium(args)))

    first = pair = None
    try:
        large = min(os.path.getsize(args.file1), os.path.getsize(args.file2)) >= _MIN_FORK_BYTES
    except OSError:
        large = False  # the reads below report it, in file order
    if large:
        from . import _fork  # only a large compare pays for loading it

        if _fork.usable_cpus() > 1:
            first, pair = _fork.run_forked([lambda: _leaves(args.file1), second])
    first = _leaves(args.file1) if first is None else first
    pair = second() if pair is None else pair  # not forked, or the child failed
    c = _premium(args)
    print(_SYMBOL[compare(_leaf_vector(first, c), UtilityVector(*pair))])
    return 0


def _cmd_demo_binomial(args: argparse.Namespace) -> int:
    from . import binomial

    x = args.successes  # None for the whole table
    s = binomial.BinomialScenario(args.trials, 0 if x is None else x, _premium(args))
    xs = range(s.trials + 1) if x is None else range(x, x + 1)
    # Every argument is checked by now.  The lines go out in batches as they
    # are solved, so an error mid-table leaves the batches before it.
    lines = binomial._LINES[args.format](binomial._values(s.trials, s.premium, xs))
    while batch := "".join(islice(lines, 4096)):
        sys.stdout.write(batch)
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from .conformance import GenConfig, run_conformance

    config = GenConfig(
        max_depth=args.max_depth,
        max_branching=args.max_branching,
        seed=args.seed,
        samples=args.samples,
    )
    report = run_conformance(config, _premium(args))
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
    return 0 if report.all_passed else 1


_COMMANDS = {
    "price": _cmd_price,
    "reduce": _cmd_reduce,
    "canonical": _cmd_canonical,
    "compare": _cmd_compare,
    "demo-binomial": _cmd_demo_binomial,
    "conformance": _cmd_conformance,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # A command builds only acyclic data (immutable gambles in tuples, decoded
    # dicts and lists) that reference counting frees; the cyclic collector
    # would only rescan it, so it is paused and its prior state restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a failed write is reported here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: end as SIGPIPE would, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 141
    except (GambleError, OSError, json.JSONDecodeError) as exc:
        print(f"lgamble: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
