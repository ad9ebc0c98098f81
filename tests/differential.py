"""Differential harness: seeded calls of the public API and the command line, one outcome line each.

With a seed, `outcomes` calls every name in `positroids.__all__` (in sorted order, so the order of `__all__` does
not matter) with valid and invalid arguments on ground sets of up to 64 elements, then runs command lines drawn
from the command table's tokens.  Each call gives one line: the entry point and its arguments, then `->` and the
result's repr, or `-> raise` and the exception's class and message.  A command line shows its exit status, stdout
and stderr.  `verify`'s elapsed time is masked, and a repr longer than `WIDTH` keeps its two ends, with its length
and digest between them.  Each name draws from its own generator, seeded by the seed and the name, so adding a name
moves no other name's lines.  After the names come the misshapen calls (`MISSHAPEN`), each label with a generator
of its own: one input that must be iterable gets a non-iterable, or a hand-built trace or row gets one bad field.

Only the standard library is used.  `tests/test_differential.py` replays the golden seed against
`tests/differential_golden.txt`, which the parent of each refactor generated.  Run it as a script to print the
lines of the tree on `sys.path`, or to compare two trees:

    PYTHONPATH=src python tests/differential.py > tests/differential_golden.txt
    python tests/differential.py --compare OLD_TREE NEW_TREE --seed 7 --calls 200 --argvs 2000

`--compare` runs this file once under each tree's `src` and prints the call counts and the first differing lines;
it exits 1 when the trees differ.
"""

import contextlib
import hashlib
import io
import random
import re
import sys

GOLDEN_SEED, GOLDEN_CALLS, GOLDEN_ARGVS = 21, 24, 400
WIDTH = 200
JUNK = (0, -1, 65, True, None, "1", 2.5, ())
NON_ITERABLE = (0, -1, 65, True, None, 2.5)
MISSHAPEN = ("BasisFamily.of", "GrassmannNecklace", "InvalidNecklaceError", "MinorTrace", "SquareRow", "Subset.of",
             "necklace_violations")


def show(value) -> str:
    """The repr of value, with set members sorted, generators listed and the middle of long text cut to a digest."""
    if isinstance(value, (set, frozenset)):
        text = "{" + ", ".join(sorted(map(show, value))) + "}"
    elif hasattr(value, "__next__"):
        text = "iter[" + ", ".join(map(show, value)) + "]"
    else:
        text = re.sub(r"elapsed=[0-9.e+-]+", "elapsed=<elapsed>", repr(value))
    if len(text) > WIDTH:
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        text = f"{text[:WIDTH // 2]} <{len(text)} chars, sha256 {digest}> {text[-WIDTH // 4:]}"
    return text


class Draw:
    """Arguments for one name: valid values most of the time, a junk value otherwise."""

    def __init__(self, P, rng: random.Random):
        self.P, self.rng = P, rng

    def odd(self, value, bad=0.15):
        return self.rng.choice(JUNK) if self.rng.random() < bad else value

    def n(self, cap=64):
        return self.rng.randint(1, 8) if cap > 8 and self.rng.random() < 0.6 else self.rng.randint(1, cap)

    def element(self, n):
        return self.odd(self.rng.randint(1, n)) if self.rng.random() > 0.1 else self.rng.choice((0, n + 1))

    def mask(self, n, k=None):
        if k is None:
            return self.rng.getrandbits(n)
        return sum(1 << (e - 1) for e in self.rng.sample(range(1, n + 1), k))

    def subset(self, n, k=None):
        return self.P.Subset(n, self.mask(n, k))

    def perm(self, n):
        images = list(range(1, n + 1))
        moved = self.rng.sample(range(n), self.rng.randint(0, n))
        shuffled = [images[i] for i in moved]
        self.rng.shuffle(shuffled)
        for i, v in zip(moved, shuffled):
            images[i] = v
        colors = {i: self.rng.choice((1, -1)) for i in range(1, n + 1) if images[i - 1] == i}
        return self.P.DecoratedPermutation.of(images, colors)

    def necklace(self, n):
        return self.P.necklace_of(self.perm(n))

    def family(self, n):
        """A positroid's bases, or k-subsets drawn at random (most of them are no matroid)."""
        if self.rng.random() < 0.6:
            return self.P.bases_of(self.necklace(n))
        k = self.rng.randint(0, n)
        return self.P.BasisFamily.of(n, [self.subset(n, k) for _ in range(self.rng.randint(1, 6))])

    def kind(self):
        return self.odd(self.rng.choice(list(self.P.minors.MinorKind)))

    def text(self, text):
        """text, or text with one character dropped, changed or doubled, or padded with blanks."""
        rng, r = self.rng, self.rng.random()
        if r < 0.6 or not text:
            return text
        i = rng.randrange(len(text))
        if r < 0.7:
            return text[:i] + text[i + 1:]
        if r < 0.85:
            return text[:i] + rng.choice(",;+- 0x9") + text[i + 1:]
        if r < 0.95:
            return text[:i] + text[i] + text[i:]
        return f" {text}\t"


def _arguments(P, d: Draw, name):
    """(entry point label, callable, args) for one call of name."""
    rng, obj = d.rng, getattr(P, name)
    n = d.n()
    small = d.n(8)
    if name in ("MAX_GROUND_SET", "BOTH_KINDS", "ENUMERATION_CAP"):
        return name, None, ()
    if name == "Subset":
        form = rng.choice(("", ".of", ".empty", ".full"))
        if form == ".of":
            return "Subset.of", obj.of, (d.odd(n), [d.element(n) for _ in range(rng.randint(0, 4))])
        if form:
            return f"Subset{form}", getattr(obj, form[1:]), (d.odd(n),)
        return name, obj, (d.odd(n), d.odd(d.mask(n + rng.choice((0, 0, 1))), 0.1))
    if name == "DecoratedPermutation":
        p = d.perm(n)
        form = rng.choice(("", ".of", ".identity"))
        if form == ".identity":
            return "DecoratedPermutation.identity", obj.identity, (d.odd(n), d.odd(rng.choice((1, -1))))
        images = list(p.images)
        if rng.random() < 0.3:
            images[rng.randrange(n)] = d.element(n)
        colors = dict(p.colors)
        if rng.random() < 0.2:
            colors[d.element(n)] = d.odd(rng.choice((1, -1)))
        if form:
            return "DecoratedPermutation.of", obj.of, (d.odd(images, 0.05), colors)
        return name, obj, (tuple(images), tuple(colors.items()))
    if name == "GrassmannNecklace":
        entries = list(d.necklace(n).entries)
        if rng.random() < 0.3:
            entries[rng.randrange(n)] = d.subset(n)
        return name, obj, (entries,)
    if name == "BasisFamily":
        form = rng.choice(("", ".of", ".empty"))
        family = d.family(small)
        if form == ".empty":
            return "BasisFamily.empty", obj.empty, (d.odd(small), d.odd(rng.randint(0, small)))
        if form:
            return "BasisFamily.of", obj.of, (d.odd(small), [list(s.members) for s in family.sorted_bases()])
        return name, obj, (small, d.odd(family.k), d.odd(family.bases, 0.05))
    if name in ("PositroidError", "ValidationError", "PreconditionError"):
        return name, obj, (rng.choice(("bad input", "")),)
    if name == "InvalidNecklaceError":
        return name, obj, (P.necklace_violations(list(d.necklace(small).entries[:-1]) or [d.subset(2)]),)
    if name == "NecklaceViolation":
        return name, obj, (rng.randint(0, n), rng.choice(("step", "size", "shape")), "detail")
    if name == "MinorKind":
        return name, obj, (rng.choice(("contraction", "restriction", "both")),)
    if name == "CaseLabel":
        return name, obj, (rng.choice([c.value for c in obj] + ["Case5"]),)
    if name in ("succ", "pred"):
        return name, obj, (d.element(n), d.odd(n))
    if name in ("cyclic_lt", "in_cyclic_interval"):
        return name, obj, (d.element(n), d.element(n), d.element(n), d.odd(n))
    if name == "gale_leq":
        k = rng.randint(0, n)
        return name, obj, (d.odd(d.subset(n, k), 0.05), d.subset(n, k if rng.random() < 0.9 else None), d.element(n))
    if name == "gale_extremum":
        direction = d.odd(rng.choice(("max", "min")), 0.1)
        return name, obj, (d.subset(n), d.element(n), direction)
    if name == "necklace_step":
        return name, obj, (d.subset(n), d.element(n), d.element(n))
    if name in ("necklace_of", "dual", "format_perm", "perm_to_obj"):
        return name, obj, (d.odd(d.perm(n), 0.05),)
    if name == "loop_coloop_status":
        return name, obj, (d.perm(n), d.element(n))
    if name in ("perm_of", "format_necklace", "necklace_to_obj"):
        return name, obj, (d.odd(d.necklace(n), 0.05),)
    if name in ("necklace_violations", "validate_necklace"):
        entries = list(d.necklace(n).entries)
        if rng.random() < 0.5:
            entries[rng.randrange(n)] = d.subset(n)
        return name, obj, (entries if rng.random() > 0.1 else entries[:-1],)
    if name == "bases_of":
        return name, obj, (d.necklace(small),)
    if name in ("format_bases", "bases_to_obj", "check_matroid", "is_positroid", "oracle_necklace"):
        return name, obj, (d.odd(d.family(small), 0.05),)
    if name in ("oracle_contract", "oracle_delete"):
        return name, obj, (d.family(small), d.element(small))
    if name == "format_subset":
        return name, obj, (d.subset(n),)
    if name == "parse_perm":
        return name, obj, (d.text(P.format_perm(d.perm(n))),)
    if name == "parse_necklace":
        return name, obj, (d.text(P.format_necklace(d.necklace(n))),)
    if name == "parse_subset":
        return name, obj, (d.text(P.format_subset(d.subset(n))), d.odd(n))
    if name == "parse_bases":
        family = d.family(small)
        return name, obj, (d.text(P.format_bases(family)), rng.choice((None, None, small, d.odd(small + 1, 0.5))))
    if name in ("contraction_swap", "restriction_swap"):
        return name, obj, (d.necklace(n), d.element(n), d.element(n))
    if name in ("contract_necklace", "restrict_necklace"):
        return name, obj, (d.necklace(n), d.element(n))
    if name in ("contract", "restrict"):
        return name, obj, (d.perm(n), d.element(n))
    if name in ("is_degenerate", "apply_minor", "trace_minor"):
        return name, obj, (d.perm(n), d.element(n), d.kind())
    if name == "classify_square":
        p = d.perm(n)
        necklace = P.necklace_of(p if rng.random() < 0.9 else d.perm(n))
        return name, obj, (p, necklace, d.element(n), d.element(n), d.kind())
    if name in ("render_trace", "trace_to_obj", "MinorTrace", "SquareRow", "MinorResult"):
        p = d.perm(n)
        moved = [i for i in range(1, n + 1) if p.images[i - 1] != i]
        if not moved:
            return name, obj, (None,) if name in ("render_trace", "trace_to_obj") else ()
        trace = P.trace_minor(p, rng.choice(moved), rng.choice(list(P.minors.MinorKind)))
        if name == "MinorTrace":
            return name, obj, (trace.kind, trace.j, trace.source, trace.result, trace.rows)
        if name == "SquareRow":
            return name, obj, tuple(getattr(trace.rows[0], field) for field in obj.__match_args__)
        if name == "MinorResult":
            return name, obj, (trace.result, rng.choice((True, False)))
        return name, obj, (trace,)
    if name == "enumerate_decorated_perms":
        return name, obj, (d.odd(rng.randint(1, 4), 0.3),)
    if name == "verify_all":
        kinds = rng.choice([P.BOTH_KINDS, *({k} for k in P.minors.MinorKind), set()])
        return name, obj, (d.odd(rng.randint(1, 4), 0.2), kinds, d.odd(1, 0.2) or 1)
    if name == "VerificationReport":
        return name, obj, (small, "both", rng.randint(0, 99), rng.randint(0, 9), 0, {"oracle": 1}, None, 0.5)
    raise KeyError(f"no argument generator for {name}")


def _misshapen(P, d: Draw, label):
    """(label, callable, args) for one call of label with one misshapen input."""
    rng, n, small = d.rng, d.n(), d.n(8)
    junk = rng.choice(NON_ITERABLE)
    if label == "Subset.of":
        return label, P.Subset.of, (n, junk)
    if label == "InvalidNecklaceError":
        return label, P.InvalidNecklaceError, (junk,)
    if label == "BasisFamily.of":
        sets = [list(s.members) for s in d.family(small).sorted_bases()]
        if rng.random() < 0.5:
            sets[rng.randrange(len(sets))] = junk
            return label, P.BasisFamily.of, (small, sets)
        return label, P.BasisFamily.of, (small, junk)
    if label in ("GrassmannNecklace", "necklace_violations"):
        entries = list(d.necklace(n).entries)
        if rng.random() < 0.5:
            entries[rng.randrange(n)] = junk
            return label, getattr(P, label), (entries,)
        return label, getattr(P, label), (junk,)
    p = d.perm(max(n, 2))
    while p.images == tuple(range(1, p.n + 1)):
        p = d.perm(p.n)
    j = rng.choice([i for i in range(1, p.n + 1) if p.images[i - 1] != i])
    trace = P.trace_minor(p, j, rng.choice(list(P.minors.MinorKind)))
    record = trace if label == "MinorTrace" else trace.rows[rng.randrange(p.n)]
    fields = [getattr(record, field) for field in record.__match_args__]
    fields[rng.randrange(len(fields))] = rng.choice(JUNK)
    return label, getattr(P, label), tuple(fields)


def _call(label, fn, args) -> str:
    shown = ", ".join(map(show, args))
    try:
        result = show(fn(*args))
    except Exception as err:
        result = f"raise {type(err).__name__}: {show(str(err))}"
    return f"{label}({shown}) -> {result}"


def _argv(P, d: Draw) -> list:
    """A command line drawn from the command table's tokens and values for each option."""
    cli, rng = P.cli, d.rng
    values = {
        "perm": lambda: d.text(P.format_perm(d.perm(d.n(8)))),
        "necklace": lambda: d.text(P.format_necklace(d.necklace(d.n(8)))),
        "bases": lambda: d.text(P.format_bases(d.family(d.n(6)))),
        "j": lambda: str(rng.randint(-1, 9)),
        "n": lambda: str(rng.randint(0, 9)),
        # at most n = 4 and one process: a verify call stays a few milliseconds
        "max_n": lambda: rng.choice(("0", "1", "2", "3", "4", "11", "x")),
        "jobs": lambda: rng.choice(("1", "0", "-1", "x")),
        "kind": lambda: rng.choice(("contraction", "restriction", "both", "neither")),
        "format": lambda: rng.choice(("text", "json", "text", "json", "yaml")),
    }
    argv = []
    if rng.random() < 0.15:
        argv += ["--format", values["format"]()]
    name = rng.choice([*cli._COMMANDS, "nope"]) if rng.random() < 0.97 else None
    command = cli._COMMANDS.get(name)
    argv += [] if name is None else [name]
    options = [*(command.options if command else ()), cli._FORMAT]
    required = [o for o in options if o.required]
    for option in required + [rng.choice(options) for _ in range(rng.choice((0, 0, 1, 2)))]:
        if rng.random() < 0.03:
            option = cli._HELP
        flag = rng.choice(option.flag.split(", "))
        if option.kind is bool:
            argv.append(flag)
        elif rng.random() < 0.1:
            argv.append(f"{flag}={values[option.dest]()}")
        else:
            argv += [flag, values[option.dest]()] if rng.random() < 0.97 else [flag]
    if rng.random() < 0.05:
        argv.insert(rng.randint(0, len(argv)), rng.choice(("--", "-x", "extra", "--pe")))
    return argv


def _run(P, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("2,1")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = P.cli.run(argv)
    except Exception as exc:
        status = f"raise {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin
    text = re.sub(r"\d+\.\d+s\b", "<elapsed>s", out.getvalue())
    text = re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": <elapsed>', text)
    return f"cli{tuple(argv)!r} -> {status} out={show(text)} err={show(err.getvalue())}"


def outcomes(seed=GOLDEN_SEED, calls=GOLDEN_CALLS, argvs=GOLDEN_ARGVS):
    """The outcome lines: calls per public name, calls per misshapen label, then argvs command lines."""
    import positroids as P
    import positroids.cli

    for name in sorted(P.__all__):
        d = Draw(P, random.Random(f"{seed}:{name}"))
        for _ in range(1 if name.isupper() else calls):
            label, fn, args = _arguments(P, d, name)
            yield f"{name} = {show(getattr(P, name))}" if fn is None else _call(label, fn, args)
    for label in MISSHAPEN:
        d = Draw(P, random.Random(f"{seed}:{label}:misshapen"))
        for _ in range(calls):
            yield _call(*_misshapen(P, d, label))
    d = Draw(P, random.Random(f"{seed}:cli"))
    for _ in range(argvs):
        yield _run(P, _argv(P, d))


def _compare(old, new, seed, calls, argvs) -> int:
    import difflib
    import os
    import subprocess

    lines = []
    for tree in (old, new):
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
        cmd = [sys.executable, __file__, "--seed", str(seed), "--calls", str(calls), "--argvs", str(argvs)]
        lines.append(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout.splitlines())
    api = sum(not line.startswith("cli(") for line in lines[0])
    print(f"seed {seed}: {api} API calls and {len(lines[0]) - api} command lines on {old}; "
          f"{len(lines[1])} lines on {new}")
    diff = list(difflib.unified_diff(*lines, old, new, n=0, lineterm=""))
    print("\n".join(diff[:40]) if diff else "no differing lines")
    return 1 if diff else 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--calls", type=int, default=GOLDEN_CALLS, help="calls per public name")
    parser.add_argument("--argvs", type=int, default=GOLDEN_ARGVS, help="command lines")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_TREE", "NEW_TREE"))
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare, args.seed, args.calls, args.argvs)
    for line in outcomes(args.seed, args.calls, args.argvs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
