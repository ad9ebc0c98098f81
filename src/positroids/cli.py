"""Command line front end for the positroid minor operations.

Only `core` and `text` (the text and JSON forms, which every command reads or prints) load with this module.  A call
is one short process, and where Python writes no bytecode cache each module it imports is compiled again, so each
handler imports what it needs beyond those two when it runs: `bases` and `is-positroid` load `families` (which holds
recognition), `contract` and `restrict` `minors`, `verify` `oracle` (which loads both), and `--format json` loads
`json`.  For the same reason argv is read in one pass against a table of commands, by the standard library parser's
rules and messages but without it: importing it (with `gettext` and `locale`) and building its seven subparsers made
a cold `necklace` call about 4 ms slower, 87 ms against 83 ms (medians of 60 alternating runs, 2-core x86, Python
3.11, no bytecode cache).
"""

import sys

from .core import PositroidError, ValidationError, necklace_of, perm_of
from .text import format_necklace, format_perm, necklace_to_obj, parse_necklace, parse_perm, perm_to_obj


def _read_arg(value: str) -> str:
    """Dereference the conventional '-' to stdin."""
    return sys.stdin.read() if value == "-" else value


def _emit(args, to_obj, to_text) -> int:
    """Print to_obj() as JSON under --format json, otherwise to_text() unless it is None; the exit status is 0.

    Each form is built only under its own --format: the other would be thrown away.
    """
    if args["format"] == "json":
        import json
        print(json.dumps(to_obj(), indent=2))
    elif to_text is not None:
        print(to_text())
    return 0


def _cmd_necklace(args) -> int:
    necklace = necklace_of(parse_perm(_read_arg(args["perm"])))
    return _emit(args, lambda: necklace_to_obj(necklace), lambda: format_necklace(necklace))


def _cmd_perm(args) -> int:
    p = perm_of(parse_necklace(_read_arg(args["necklace"])))
    return _emit(args, lambda: perm_to_obj(p), lambda: format_perm(p))


def _cmd_bases(args) -> int:
    from .families import bases_of, bases_to_obj, format_bases

    if args["perm"] is not None:
        necklace = necklace_of(parse_perm(_read_arg(args["perm"])))
    else:
        necklace = parse_necklace(_read_arg(args["necklace"]))
    family = bases_of(necklace)
    return _emit(args, lambda: bases_to_obj(family), lambda: format_bases(family))


def _cmd_minor(args, kind: str) -> int:
    from .minors import MinorKind, apply_minor, render_trace, trace_minor, trace_to_obj

    kind = MinorKind(kind)
    p = parse_perm(_read_arg(args["perm"]))
    what = "contracting" if kind is MinorKind.CONTRACTION else "deleting"
    steps, traces = [], []
    for j in args["j"]:
        outcome = apply_minor(p, j, kind)
        if outcome.degenerate:
            print(f"warning: {what} j={j} is degenerate (no minor of the expected rank exists on this ground set); "
                  "returning the identity with all fixed points +1", file=sys.stderr)
        if args["trace"]:
            if p.image(j) == j:
                print(f"note: j={j} is a fixed point, nothing to trace", file=sys.stderr)
            else:
                traces.append(trace_minor(p, j, kind))
        steps.append({"j": j, "degenerate": outcome.degenerate})
        p = outcome.perm

    def to_obj():
        obj = {"result": perm_to_obj(p), "steps": steps}
        if args["trace"]:
            obj["traces"] = [trace_to_obj(t) for t in traces]
        return obj

    # each trace is followed by a blank line, then the permutation
    return _emit(args, to_obj, lambda: "\n\n".join([*map(render_trace, traces), format_perm(p)]))


def _cmd_is_positroid(args) -> int:
    from .families import check_matroid, is_positroid, parse_bases

    family = parse_bases(_read_arg(args["bases"]), args["n"])
    positroid = is_positroid(family)
    matroid = check_matroid(family)
    return _emit(args, lambda: dict(n=family.n, k=family.k, positroid=positroid, matroid_exchange=matroid),
                 lambda: f"positroid: {str(positroid).lower()}\nmatroid-exchange: {str(matroid).lower()}")


def _cmd_verify(args) -> int:
    from .minors import MinorKind
    from .oracle import BOTH_KINDS, ENUMERATION_CAP, verify_all

    if not 1 <= args["max_n"] <= ENUMERATION_CAP:
        raise ValidationError(f"--max-n must be between 1 and {ENUMERATION_CAP}")
    kinds = BOTH_KINDS if args["kind"] == "both" else frozenset({MinorKind(args["kind"])})
    reports = []
    for n in range(1, args["max_n"] + 1):
        report = verify_all(n, kinds, jobs=args["jobs"])
        reports.append(report)
        if args["format"] == "text":
            print(report.summary())
            if report.first_failure:
                print(f"  first failure: {report.first_failure}")
    # the text lines went out as each n finished
    _emit(args, lambda: [r.to_obj() for r in reports], None)
    return 2 if any(r.mismatches for r in reports) else 0


class _Option:
    """An option: kind str or int takes one value, list appends an int per use, bool is a flag."""

    def __init__(self, flag, help, kind=str, required=False, default=None, choices=None):
        self.flag, self.help, self.kind, self.required, self.choices = flag, help, kind, required, choices
        self.name, self.dest = flag.replace(", ", "/"), flag.lstrip("-").replace("-", "_")
        self.default = False if kind is bool else [] if kind is list else default
        metavar = "{%s}" % ",".join(choices) if choices else self.dest.upper()
        self.invocation = flag if kind is bool else f"{flag} {metavar}"


class _Command:
    """A command: its handler, its help line, its options, and whether exactly one of them must be given."""

    def __init__(self, handler, blurb, *options, one_of=False):
        self.handler, self.blurb, self.options, self.one_of = handler, blurb, options, one_of


_HELP = _Option("-h, --help", "show this help message and exit", bool)
_FORMAT = _Option("--format", "output form (default: text)", choices=("text", "json"))
# the top level takes these, and so does every command: --format may come before or after the command
_TOP = {"-h": _HELP, "--help": _HELP, "--format": _FORMAT}
_COMMANDS = {
    "necklace": _Command(_cmd_necklace, "Grassmann necklace of a decorated permutation",
                         _Option("--perm", "decorated permutation, e.g. 8,1,4,2,5+,7,3,6", required=True)),
    "perm": _Command(_cmd_perm, "decorated permutation of a Grassmann necklace",
                     _Option("--necklace", "necklace, e.g. 1,2;2,3;3,1", required=True)),
    "bases": _Command(_cmd_bases, "all bases of a positroid", _Option("--perm", "decorated permutation"),
                      _Option("--necklace", "Grassmann necklace"), one_of=True),
    **{name: _Command(lambda args, kind=kind: _cmd_minor(args, kind), f"{verb} elements of a positroid",
                      _Option("--perm", "decorated permutation", required=True),
                      _Option("-j", "element to act on (repeat to apply in sequence)", list, required=True),
                      _Option("--trace", "print the square-by-square diagram", bool))
       for name, kind, verb in (("contract", "contraction", "contract"), ("restrict", "restriction", "delete"))},
    "is-positroid": _Command(_cmd_is_positroid, "test a basis family for the positroid property",
                             _Option("--bases", "basis family, e.g. 1,2;1,3;2,3", required=True),
                             _Option("--n", "ground set size (default: largest element)", int)),
    "verify": _Command(
        _cmd_verify, "exhaustively check the minor routes against brute force",
        _Option("--max-n", "largest ground set size", int, required=True),
        _Option("--kind", "which minors to check (default: both)", default="both",
                choices=("contraction", "restriction", "both")),
        _Option("--jobs", "split the sweep this many ways, run by at most one process per core (default: 1)",
                int, default=1),
    ),
}


def _usage(name) -> str:
    """The usage line of the top level (name None) or of a command."""
    if name is None:
        return f"usage: positroids [-h] [{_FORMAT.invocation}] {{{','.join(_COMMANDS)}}} ..."
    command = _COMMANDS[name]
    parts = [o.invocation if o.required else f"[{o.invocation}]" for o in command.options]
    if command.one_of:
        parts = [f"({' | '.join(o.invocation for o in command.options)})"]
    return " ".join([f"usage: positroids {name} [-h] [{_FORMAT.invocation}]", *parts])


def _help(name) -> str:
    options = (_HELP, _FORMAT, *(() if name is None else _COMMANDS[name].options))
    lines = [_usage(name), ""]
    if name is None:
        about = ("Positroid minors on decorated permutations and Grassmann necklaces. "
                 "String inputs accept '-' to read stdin.")
        lines += [about, "", "commands:", *(f"  {n:<20}  {c.blurb}" for n, c in _COMMANDS.items()), ""]
    return "\n".join([*lines, "options:", *(f"  {o.invocation:<20}  {o.help}" for o in options), ""])


def _fail(name, message: str):
    # a usage problem is an input error, status 1; 2 is kept for verification mismatches
    print(f"{_usage(name)}\npositroids{'' if name is None else ' ' + name}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _lookup(arg: str, options: dict, name):
    """What arg is: "A" for a value, else (flag, its value after '=' or glued on, or None)."""
    if arg[:1] != "-" or arg == "-":
        return "A"
    flag, eq, value = arg.partition("=")
    if arg in options or eq and flag in options:
        return (arg, None) if arg in options else (flag, value)
    found = [f for f in options if f.startswith(flag)] if arg[1] == "-" else [f for f in options if f == arg[:2]]
    if len(found) > 1:
        _fail(name, f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], (value if eq else None) if arg[1] == "-" else arg[2:]
    whole, dot, fraction = arg[1:].removesuffix("\n").partition(".")
    number = (whole + "0").isdecimal() and (fraction if dot else whole).isdecimal()
    return "A" if number or " " in arg else (arg, None)


def _walk(argv: list, name, options: dict, args: dict, seen: list):
    """Act on argv's options in order; return (argv from the top level's first value on, the unknown args)."""
    # every arg is read before any option acts, so an ambiguous option is reported first wherever it stands
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_lookup(a, options, name) for a in argv[:cut]] + ["-"] * (cut < len(argv)) + ["A"] * (len(argv) - cut - 1)
    extras, i = [], 0
    while i < len(argv):
        arg, kind, i = argv[i], kinds[i], i + 1
        if kind in ("A", "-") and name is None:
            return argv[i - 1:], extras
        option = None if kind in ("A", "-") else options.get(kind[0])
        if option is None:
            extras.append(arg)
            continue
        (flag, value), taken = kind, []
        while option.kind is bool and value is not None:  # -hX reads on as -h -X; any other flag=value is an error
            if flag[1] == "-" or not value or "-" + value[0] not in options:
                _fail(name, f"argument {option.name}: ignored explicit argument {value!r}")
            taken.append((option, True))
            flag = "-" + value[0]
            option, value = options[flag], value[1:] or None
        if option.kind is not bool and value is None:
            if i == len(argv) or kinds[i] != "A":
                _fail(name, f"argument {option.name}: expected one argument")
            value, i = argv[i], i + 1
        for option, value in [*taken, (option, True if option.kind is bool else value)]:
            seen.append(option)
            if option is _HELP:
                print(_help(name), end="")
                raise SystemExit(0)
            if option.kind in (int, list):
                try:
                    value = int(value)
                except ValueError:
                    _fail(name, f"argument {option.name}: invalid int value: {value!r}")
            if option.choices and value not in option.choices:
                choices = ", ".join(map(repr, option.choices))
                _fail(name, f"argument {option.name}: invalid choice: {value!r} (choose from {choices})")
            group = _COMMANDS[name].options if name and _COMMANDS[name].one_of else ()
            for other in [o for o in group if option in group and o is not option and o in seen][:1]:
                _fail(name, f"argument {option.name}: not allowed with argument {other.name}")
            args[option.dest] = [*args[option.dest], value] if option.kind is list else value
    return [], extras


def _parse(argv: list):
    """The handler and the arguments that argv names; a usage error prints the usage line and exits with 1."""
    args = {"format": "text"}
    rest, extras = _walk(argv, None, _TOP, args, [])
    if rest in ([], ["--"]):
        _fail(None, "the following arguments are required: command")
    if rest[0] not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {rest[0]!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    name, seen, command = rest[0], [], _COMMANDS[rest[0]]
    args.update((o.dest, o.default) for o in command.options)
    extras += _walk(rest[1:], name, {**_TOP, **{o.flag: o for o in command.options}}, args, seen)[1]
    missing = [o.name for o in command.options if o.required and o not in seen]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if command.one_of and not any(o in seen for o in command.options):
        _fail(name, f"one of the arguments {' '.join(o.name for o in command.options)} is required")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return command.handler, args


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the exit status."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as stop:
        return stop.code
    try:
        return handler(args)
    except PositroidError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
