"""Command line front end for the positroid minor operations.

Only `core` loads with this module.  A call is one short process, and where
Python writes no bytecode cache each module it imports is compiled again, so
each handler imports what it needs beyond `core` when it runs: `contract` and
`restrict` load `minors`, `is-positroid` and `verify` load `oracle`, and
`--format json` loads `json`.  `necklace`, `perm` and `bases` load none of them.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    PositroidError,
    ValidationError,
    bases_of,
    bases_to_obj,
    format_bases,
    format_necklace,
    format_perm,
    necklace_of,
    necklace_to_obj,
    parse_bases,
    parse_necklace,
    parse_perm,
    perm_of,
    perm_to_obj,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but this tool reserves 2 for
    # verification mismatches; usage problems are input errors, status 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_arg(value: str) -> str:
    """Dereference the conventional '-' to stdin."""
    return sys.stdin.read() if value == "-" else value


def _emit(args, obj, text: str | None) -> None:
    """Print obj as JSON under --format json, otherwise text unless it is None."""
    if args.format == "json":
        import json
        print(json.dumps(obj, indent=2))
    elif text is not None:
        print(text)


def _cmd_necklace(args) -> int:
    necklace = necklace_of(parse_perm(_read_arg(args.perm)))
    _emit(args, necklace_to_obj(necklace), format_necklace(necklace))
    return 0


def _cmd_perm(args) -> int:
    p = perm_of(parse_necklace(_read_arg(args.necklace)))
    _emit(args, perm_to_obj(p), format_perm(p))
    return 0


def _cmd_bases(args) -> int:
    if args.perm is not None:
        necklace = necklace_of(parse_perm(_read_arg(args.perm)))
    else:
        necklace = parse_necklace(_read_arg(args.necklace))
    family = bases_of(necklace)
    _emit(args, bases_to_obj(family), format_bases(family))
    return 0


def _cmd_minor(args, kind: str) -> int:
    from .minors import MinorKind, apply_minor, render_trace, trace_minor, trace_to_obj

    kind = MinorKind(kind)
    p = parse_perm(_read_arg(args.perm))
    what = "contracting" if kind is MinorKind.CONTRACTION else "deleting"
    steps = []
    traces = []
    for j in args.j:
        outcome = apply_minor(p, j, kind)
        if outcome.degenerate:
            print(
                f"warning: {what} j={j} is degenerate "
                "(no minor of the expected rank exists on this ground set); "
                "returning the identity with all fixed points +1",
                file=sys.stderr,
            )
        if args.trace:
            if p.image(j) == j:
                print(f"note: j={j} is a fixed point, nothing to trace", file=sys.stderr)
            else:
                traces.append(trace_minor(p, j, kind))
        steps.append({"j": j, "degenerate": outcome.degenerate})
        p = outcome.perm
    obj = {"result": perm_to_obj(p), "steps": steps}
    if args.trace:
        obj["traces"] = [trace_to_obj(t) for t in traces]
    # each trace is followed by a blank line, then the permutation
    _emit(args, obj, "\n\n".join([*map(render_trace, traces), format_perm(p)]))
    return 0


def _cmd_is_positroid(args) -> int:
    from .oracle import check_matroid, is_positroid

    family = parse_bases(_read_arg(args.bases), args.n)
    positroid = is_positroid(family)
    matroid = check_matroid(family)
    obj = {"n": family.n, "k": family.k, "positroid": positroid, "matroid_exchange": matroid}
    text = f"positroid: {str(positroid).lower()}\nmatroid-exchange: {str(matroid).lower()}"
    _emit(args, obj, text)
    return 0


def _cmd_verify(args) -> int:
    from .minors import MinorKind
    from .oracle import BOTH_KINDS, ENUMERATION_CAP, verify_all

    if not 1 <= args.max_n <= ENUMERATION_CAP:
        raise ValidationError(f"--max-n must be between 1 and {ENUMERATION_CAP}")
    kinds = BOTH_KINDS if args.kind == "both" else frozenset({MinorKind(args.kind)})
    reports = []
    for n in range(1, args.max_n + 1):
        report = verify_all(n, kinds, jobs=args.jobs)
        reports.append(report)
        if args.format == "text":
            print(report.summary())
            if report.first_failure:
                print(f"  first failure: {report.first_failure}")
    # the text lines went out as each n finished
    _emit(args, [r.to_obj() for r in reports], None)
    return 2 if any(r.mismatches for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    # --format is accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from overwriting a value parsed at the top level
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS,
        help="output form (default: text)",
    )

    parser = _Parser(
        prog="positroids",
        description=(
            "Positroid minors on decorated permutations and Grassmann necklaces. "
            "String inputs accept '-' to read stdin."
        ),
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_necklace = sub.add_parser(
        "necklace", parents=[shared], help="Grassmann necklace of a decorated permutation"
    )
    p_necklace.add_argument("--perm", required=True, help="decorated permutation, e.g. 8,1,4,2,5+,7,3,6")
    p_necklace.set_defaults(handler=_cmd_necklace)

    p_perm = sub.add_parser(
        "perm", parents=[shared], help="decorated permutation of a Grassmann necklace"
    )
    p_perm.add_argument("--necklace", required=True, help="necklace, e.g. 1,2;2,3;3,1")
    p_perm.set_defaults(handler=_cmd_perm)

    p_bases = sub.add_parser("bases", parents=[shared], help="all bases of a positroid")
    src = p_bases.add_mutually_exclusive_group(required=True)
    src.add_argument("--perm", help="decorated permutation")
    src.add_argument("--necklace", help="Grassmann necklace")
    p_bases.set_defaults(handler=_cmd_bases, perm=None, necklace=None)

    for name, kind, blurb in (
        ("contract", "contraction", "contract elements of a positroid"),
        ("restrict", "restriction", "delete elements of a positroid"),
    ):
        p_minor = sub.add_parser(name, parents=[shared], help=blurb)
        p_minor.add_argument("--perm", required=True, help="decorated permutation")
        p_minor.add_argument(
            "-j", action="append", type=int, required=True, metavar="J",
            help="element to act on (repeat to apply in sequence)",
        )
        p_minor.add_argument("--trace", action="store_true", help="print the square-by-square diagram")
        p_minor.set_defaults(handler=lambda a, k=kind: _cmd_minor(a, k))

    p_is = sub.add_parser(
        "is-positroid", parents=[shared], help="test a basis family for the positroid property"
    )
    p_is.add_argument("--bases", required=True, help="basis family, e.g. 1,2;1,3;2,3")
    p_is.add_argument("--n", type=int, default=None, help="ground set size (default: largest element)")
    p_is.set_defaults(handler=_cmd_is_positroid)

    p_verify = sub.add_parser(
        "verify", parents=[shared], help="exhaustively check the minor routes against brute force"
    )
    p_verify.add_argument("--max-n", type=int, required=True, help="largest ground set size")
    p_verify.add_argument(
        "--kind", choices=("contraction", "restriction", "both"), default="both",
        help="which minors to check (default: both)",
    )
    p_verify.add_argument(
        "--jobs", type=int, default=1,
        help="split the sweep this many ways, run by at most one process per core (default: 1)",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 1
    try:
        return args.handler(args)
    except PositroidError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
