"""Wrong-input totality: every public call returns or raises a `PositroidError`.

Each name in `positroids.__all__` is called with the valid arguments that `tests/differential.py` draws, then again
with each argument in turn replaced by each value of a fixed junk table, and, where that argument is a list or a
tuple, with its first element replaced instead.  The public methods, properties and operators of the value types
get the same treatment.  A call passes when it returns (an iterator it returns is read too) or raises a
`PositroidError`; any other exception is a leak.

`MinorKind(x)` and `CaseLabel(x)` are the listed exceptions: they are enum lookups, which raise the enum's own
`ValueError`, and the command line never builds either from user text.
"""

import random
from collections.abc import Iterator
from functools import partial
from itertools import islice

import pytest

import positroids as P
from differential import Draw, _arguments

SEED, DRAWS = 28, 3
JUNK = (None, 0, -1, 65, True, False, 2.5, 1j, "", "1", b"1", (), (1,), [], [1], {}, {1: 1}, frozenset(), object())
ENUM_LOOKUPS = {"MinorKind": P.MinorKind, "CaseLabel": P.CaseLabel}
OPERATORS = ("__hash__", "__repr__", "__str__", "__len__", "__iter__")
# the public methods that take arguments, which `value_calls` lists with valid ones
TAKE_ARGUMENTS = {"of", "empty", "full", "identity", "add", "discard", "issubset", "image", "color", "with_color",
                  "entry"}


class ValidDraw(Draw):
    """The harness's draws with no junk: elements in range and texts as formatted."""

    def odd(self, value, bad=0.15):
        return value

    def element(self, n):
        return self.rng.randint(1, n)

    def text(self, text):
        return text


def outcome(fn, args):
    """None when fn(*args) returns or raises a PositroidError, else the leaked exception."""
    try:
        result = fn(*args)
        if isinstance(result, Iterator):
            list(islice(result, 3))
    except P.PositroidError:
        return None
    except Exception as err:
        return err
    return None


def with_junk(args):
    """args with one argument, or the first element of a list or tuple argument, replaced by a junk value."""
    for i, arg in enumerate(args):
        for junk in JUNK:
            yield (*args[:i], junk, *args[i + 1:])
            if isinstance(arg, (list, tuple)) and arg:
                yield (*args[:i], type(arg)([junk, *arg[1:]]), *args[i + 1:])


def value_calls(d: ValidDraw):
    """(label, callable, valid args) for the classmethods, methods, properties and operators of drawn values."""
    n = d.n(8)
    s, p = d.subset(n), d.perm(n)
    necklace, family = P.necklace_of(p), d.family(n)
    fixed = p.fixed_points[0] if p.fixed_points else 1
    moved = [i for i in range(1, n + 1) if p.images[i - 1] != i]
    traced, j = (p, moved[0]) if moved else (P.parse_perm("2,1"), 1)
    trace = P.trace_minor(traced, j, P.MinorKind.CONTRACTION)
    yield from [
        ("Subset.of", P.Subset.of, (n, list(s.members))), ("Subset.empty", P.Subset.empty, (n,)),
        ("Subset.full", P.Subset.full, (n,)),
        ("DecoratedPermutation.of", P.DecoratedPermutation.of, (list(p.images), dict(p.colors))),
        ("DecoratedPermutation.identity", P.DecoratedPermutation.identity, (n, -1)),
        ("BasisFamily.of", P.BasisFamily.of, (n, [list(b.members) for b in family])),
        ("BasisFamily.empty", P.BasisFamily.empty, (n, family.k)),
        ("Subset.add", s.add, (1,)), ("Subset.discard", s.discard, (n,)), ("Subset.issubset", s.issubset, (s,)),
        ("Subset |", s.__or__, (s,)), ("Subset &", s.__and__, (s,)), ("Subset -", s.__sub__, (s,)),
        ("Subset in", s.__contains__, (1,)), ("DecoratedPermutation.image", p.image, (1,)),
        ("DecoratedPermutation.color", p.color, (fixed,)),
        ("DecoratedPermutation.with_color", p.with_color, (fixed, -1)),
        ("GrassmannNecklace.entry", necklace.entry, (n + 1,)),
        ("BasisFamily in", family.__contains__, (next(iter(family), s),)),
    ]
    values = [s, p, necklace, family, P.NecklaceViolation(1, "step", "detail"),
              P.apply_minor(p, 1, P.MinorKind.RESTRICTION), trace, trace.rows[0], P.verify_all(2)]
    for value in values:
        cls = type(value).__name__
        yield f"{cls} ==", value.__eq__, (value,)
        defined = [name for name in OPERATORS if getattr(value, name, None) is not None]
        for name in (*defined, *(name for name in dir(value) if name[0] != "_" and name not in TAKE_ARGUMENTS)):
            yield f"{cls}.{name}", partial(read, value, name), ()


def read(value, name):
    """The attribute name of value, called when it is a method."""
    attr = getattr(value, name)
    return attr() if callable(attr) else attr


def calls():
    for name in sorted(P.__all__):
        d = ValidDraw(P, random.Random(f"{SEED}:{name}"))
        for _ in range(1 if name.isupper() else DRAWS):
            label, fn, args = _arguments(P, d, name)
            if args:  # not a constant, nor a trace constructor on a permutation with nothing to trace
                yield label, fn, args
    d = ValidDraw(P, random.Random(f"{SEED}:values"))
    for _ in range(DRAWS):
        yield from value_calls(d)


def test_every_public_call_returns_or_raises_a_positroid_error():
    leaks, count = [], 0
    for label, fn, args in calls():
        for junk_args in [args, *with_junk(args)]:
            count += 1
            err = outcome(fn, junk_args)
            if err is not None and not (fn in ENUM_LOOKUPS.values() and type(err) is ValueError):
                leaks.append(f"{label}{junk_args!r}: {type(err).__name__}: {err}")
    assert count > 5000
    assert not leaks, f"{len(leaks)} leaks, the first 20:\n" + "\n".join(leaks[:20])


@pytest.mark.parametrize("name", sorted(ENUM_LOOKUPS))
@pytest.mark.parametrize("junk", [0, None, "Case5", "both"])
def test_an_enum_lookup_raises_the_enums_own_value_error(name, junk):
    with pytest.raises(ValueError, match="is not a valid"):
        ENUM_LOOKUPS[name](junk)
