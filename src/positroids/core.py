"""Positroid combinatorics on the cyclically ordered ground set {1, ..., n}.

A positroid can be recorded in three interchangeable forms:

* a decorated permutation: a permutation of {1, ..., n} whose fixed points
  each carry a color +1 or -1,
* a Grassmann necklace: a cyclic sequence I_1, ..., I_n of k-subsets obeying
  a step rule (I_{i+1} is I_i with i swapped out, or I_i unchanged),
* the explicit family of its bases.

This module holds the permutation and necklace value types and the bijection
between them; `text` holds their text and JSON forms, `subsets` the `Subset`
value type and its text form, `families` the basis families, enumerated from a
necklace's Gale bounds, and `orders` the cyclic and Gale orders as checked
public functions.  `__all__` lists what `positroids` takes from here, and a
cold `import positroids` compiles this module alone: the two `__repr__`s import
their formatter from `text` when they are called.
Every function is pure and every value is immutable: a value type derives
from `_Value`, its constructor stores the fields in `__dict__`, and assigning
or deleting one raises `AttributeError`.  `repr`, `==` and `hash` read the
fields in order, as a frozen data class's would.  The library uses no data
classes, whose module loads `inspect`, `ast`, `dis` and `tokenize`: several
milliseconds of a one-shot CLI call.  Ground sets are capped at 64 elements so
subsets fit in a machine word.

Validation happens once, at the boundary: the public constructors and their
builders, the parsers and the public functions check what they are given, each
input rule through its one checker (`_check_count`, `_check_element`,
`_check_color`, and `_check_type` for an argument of another type).  Values
built from values already checked are made with the private `_perm`,
`_necklace`, `subsets._subset` and `families._family`, which skip the checks,
and the hot loops and the checks themselves read masks and image tuples
directly.  The
walks `minors.contract` and `restrict` build their results unchecked too, and
the sweep guards that each is a permutation, so that a faulty walk is reported
rather than trusted.  One exception: `families.oracle_necklace` returns the Gale
minima of any family unchecked, and for a family that is not a matroid they
need not form a Grassmann necklace.

A necklace holds the masks of its entries, one int each, and `_necklace`
takes those masks.  Its `Subset` entries are built only when a caller reads
`entries` or `entry(r)`, so the conversions, the swap formulas, the text and
JSON forms, the traces and the sweep never build one.  No command loads
`subsets` either: this module, `text`, `families` and `minors` import it inside
the calls that build or check a `Subset` (the necklace constructor and
`entries` here, and subset text that leaves the table path in `text`), and
`positroids` on the first read of one of its names.  The step rule is checked
on masks by `_mask_violations`, which `subsets.necklace_violations` and
`text.parse_necklace` share.  A basis family likewise holds its bases' masks.
"""

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

__all__ = [
    "MAX_GROUND_SET", "DecoratedPermutation", "GrassmannNecklace", "InvalidNecklaceError", "NecklaceViolation",
    "PositroidError", "PreconditionError", "ValidationError", "dual", "loop_coloop_status", "necklace_of", "perm_of",
]

MAX_GROUND_SET = 64


class PositroidError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(PositroidError, ValueError):
    """Malformed or inconsistent input data."""


class PreconditionError(PositroidError, ValueError):
    """Structurally valid input outside an operation's domain."""


class InvalidNecklaceError(ValidationError):
    """A subset sequence that is not a Grassmann necklace.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        _check_iterable(violations, "violations")
        self.violations = list(violations)
        super().__init__(f"not a Grassmann necklace: {'; '.join(map(str, self.violations))}")


def _check_count(x: int, what: str = "ground set size", cap: int | None = MAX_GROUND_SET) -> None:
    """Check x, a count: a positive int, not a bool, and at most cap unless that is None."""
    if x.__class__ is bool or not isinstance(x, int) or x < 1:
        raise ValidationError(f"{what} must be a positive integer, got {x!r}")
    if cap is not None and x > cap:
        raise ValidationError(f"{what} {x} exceeds the cap of {cap}")


def _check_element(i: int, n: int, what: str = "element") -> int:
    """i checked against 1..n, as a plain int: True is the element 1."""
    if not isinstance(i, int) or not 1 <= i <= n:
        raise ValidationError(f"{what} {i!r} is out of range 1..{n}")
    return int(i)


def _check_type(value, cls: type) -> None:
    """The check of an argument whose fields are read: value must be a cls (a subclass passes)."""
    if not isinstance(value, cls):
        raise ValidationError(f"expected a {cls.__name__}, got {type(value).__name__}")


def _check_iterable(value, what: str, cls: type = Iterable) -> None:
    """Check value, the argument named what, is an Iterable (or cls, e.g. a Sequence) before it is read."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be {'iterable' if cls is Iterable else 'a sequence'}, "
                              f"got {type(value).__name__}")


def _check_color(c: int, i: int | None = None) -> None:
    """Check c, the color of fixed point i (unnamed when None): +1 or -1, not a bool."""
    if c.__class__ is bool or not isinstance(c, int) or c not in (-1, 1):
        what = "color" if i is None else f"color of {i}"
        raise ValidationError(f"{what} must be +1 or -1, got {c!r}")


class _Value:
    """Base of the value types: read-only fields, named in order by `__match_args__`."""

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, self.__match_args__, self._fields()))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


def _gale_bounds(mask: int, t: int, n: int) -> list[tuple[int, int]]:
    """(prefix, count) pairs: h >=_t mask, for h of mask's size, exactly when
    (h & prefix).bit_count() <= count for every pair.

    The i-th member x of mask in the order from t is at most the i-th member
    of h exactly when fewer than i members of h come before x.
    """
    below = (1 << (t - 1)) - 1  # elements 1..t-1, which come last from t
    above = ((1 << n) - 1) ^ below
    pairs = []
    # a member x >= t is preceded by t..x-1, a member x < t by t..n and 1..x-1
    for part, before, skip in ((mask & above, 0, below), (mask & below, above, 0)):
        while part:
            low = part & -part
            part ^= low
            pairs.append((before | ((low - 1) ^ skip), len(pairs)))
    return pairs


def _shifted_max(mask: int, t: int) -> int:
    """Largest member of a mask in the order t < ... < n < 1 < ... < t-1.

    That is the highest member below t, or the highest member when none
    lies below t.
    """
    if not mask:
        raise PreconditionError("the empty set has no Gale extremum")
    return (mask & ((1 << (t - 1)) - 1) or mask).bit_length()


def _shifted_min(mask: int, t: int) -> int:
    """Smallest member of a mask in the order t < ... < n < 1 < ... < t-1.

    That is the lowest member at or above t, or the lowest member when none
    lies there.
    """
    if not mask:
        raise PreconditionError("the empty set has no Gale extremum")
    low = mask >> (t - 1) << (t - 1) or mask
    return (low & -low).bit_length()


class DecoratedPermutation(_Value):
    """Permutation of {1, ..., n} with a +1/-1 color on each fixed point.

    A -1 fixed point marks a coloop (in every basis), a +1 fixed point a loop
    (in no basis).  `images` is the one-line notation; `colors` is a sorted
    tuple of (fixed point, color) pairs covering exactly the fixed points.
    """

    __match_args__ = ("images", "colors")

    def __init__(self, images: tuple[int, ...], colors: tuple[tuple[int, int], ...]) -> None:
        if not isinstance(images, tuple) or not isinstance(colors, tuple):
            raise ValidationError("images and colors must be tuples; DecoratedPermutation.of takes other forms")
        n = len(images)
        _check_count(n)
        seen = set()
        fixed = []
        for pos, v in enumerate(images, start=1):
            if v.__class__ is bool or not isinstance(v, int) or not 1 <= v <= n:
                what = "a bool, not an element" if v.__class__ is bool else f"out of range 1..{n}"
                raise ValidationError(f"image at position {pos} {v!r} is {what}")
            if v in seen:
                raise ValidationError(f"image {v} repeats at position {pos}; not a permutation")
            seen.add(v)
            if v == pos:
                fixed.append(pos)
        fixed = tuple(fixed)
        for pos, pair in enumerate(colors, start=1):
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValidationError(f"color entry {pair!r} is not a (fixed point, color) pair")
            i, c = pair
            if i.__class__ is bool:
                raise ValidationError(f"color entry {pos} is given for {i!r}, a bool, not a fixed point")
            if i not in fixed:
                raise ValidationError(f"color given for {i}, which is not a fixed point")
            _check_color(c, i)
        listed = tuple([i for i, _ in colors])
        if listed != fixed:
            missing = set(fixed) - set(listed)
            if missing:
                raise ValidationError(f"fixed points {sorted(missing)} are missing colors")
            raise ValidationError(f"colors must list each fixed point of {list(fixed)} once, in increasing order")
        self.__dict__.update(images=images, colors=colors)

    # the sweep compares a round trip and a convention result per instance:
    # reading the two fields directly takes about a third of the time that
    # `_Value.__eq__` takes to build and compare tuples of fields
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.images, self.colors) == (other.images, other.colors)
        return NotImplemented

    __hash__ = _Value.__hash__

    @classmethod
    def of(cls, images: Iterable[int], colors: Mapping[int, int] | None = None) -> "DecoratedPermutation":
        """Build from any iterable of images and a fixed point -> color mapping."""
        _check_iterable(images, "images")
        try:
            pairs = tuple(dict(colors or {}).items())
        except (TypeError, ValueError):
            raise ValidationError(f"colors must be a mapping of fixed points to colors, got {colors!r}") from None
        try:
            pairs = tuple(sorted(pairs))
        except TypeError:
            pass  # keys that do not compare are not all fixed points, which __init__ reports
        return cls(tuple(images), pairs)

    @classmethod
    def identity(cls, n: int, color: int = 1) -> "DecoratedPermutation":
        _check_count(n)
        _check_color(color, 1)
        return _perm(tuple(range(1, n + 1)), tuple((i, color) for i in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def image(self, i: int) -> int:
        return self.images[_check_element(i, self.n) - 1]

    def inverse(self) -> tuple[int, ...]:
        """One-line notation of the inverse permutation."""
        images = self.images
        inv = [0] * len(images)
        for i, v in enumerate(images, start=1):
            inv[v - 1] = i
        return tuple(inv)

    @property
    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.colors)

    def color(self, i: int) -> int:
        for j, c in self.colors:
            if j == i:
                return c
        raise ValidationError(f"{i} is not a fixed point")

    def with_color(self, i: int, color: int) -> "DecoratedPermutation":
        _check_color(color)
        colors = tuple([(j, color if j == i else c) for j, c in self.colors])
        if (i, color) not in colors:
            raise ValidationError(f"{i} is not a fixed point")
        return _perm(self.images, colors)

    def __repr__(self) -> str:
        from .text import format_perm

        return f"DecoratedPermutation({format_perm(self)!r})"


def _perm(images: tuple[int, ...], colors: tuple[tuple[int, int], ...]) -> DecoratedPermutation:
    """DecoratedPermutation(images, colors) without the checks, for values known valid."""
    p = object.__new__(DecoratedPermutation)
    fields = p.__dict__
    fields["images"] = images
    fields["colors"] = colors
    return p


def loop_coloop_status(p: DecoratedPermutation, i: int) -> str:
    """Classify element i as 'loop', 'coloop', or 'neither'.

    Loops are +1 fixed points, coloops are -1 fixed points; everything else
    is in some basis but not all of them.
    """
    _check_type(p, DecoratedPermutation)
    i = _check_element(i, p.n)
    if p.images[i - 1] != i:
        return "neither"
    return "coloop" if p.color(i) == -1 else "loop"


def dual(p: DecoratedPermutation) -> DecoratedPermutation:
    """Decorated permutation of the dual positroid.

    The inverse permutation with every fixed-point color negated: the bases
    of the dual are the complements of the bases of p, so loops and coloops
    trade places.  dual(dual(p)) == p.
    """
    _check_type(p, DecoratedPermutation)
    return _perm(p.inverse(), tuple([(i, -c) for i, c in p.colors]))


class GrassmannNecklace(_Value):
    """Cyclic sequence I_1, ..., I_n of k-subsets obeying the step rule.

    The step rule: if i is in I_i then I_{i+1} = (I_i minus i) plus one
    element, otherwise I_{i+1} = I_i.  Indices are cyclic, so entry(n+1) is
    entry(1).  The constructor takes the entries as Subsets and checks them
    with `subsets.validate_necklace`; `families.oracle_necklace` builds its value without
    the check and, for a family that is not a matroid, can return one that
    breaks the step rule.

    What is stored is `masks`, the entries' bitmasks; equality and hashing
    use them.  `entries`, the Subsets, is built from the masks on first
    access and kept.
    """

    __match_args__ = ("masks",)

    def __init__(self, entries: Sequence["Subset"]):
        from .subsets import validate_necklace

        _check_iterable(entries, "entries", Sequence)
        if not entries:
            raise ValidationError("a Grassmann necklace needs at least one entry")
        self.__dict__["masks"] = validate_necklace(entries).masks

    @cached_property
    def entries(self) -> tuple["Subset", ...]:
        from .subsets import _subset

        n = len(self.masks)
        return tuple([_subset(n, mask) for mask in self.masks])

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def k(self) -> int:
        return self.masks[0].bit_count()

    def entry(self, r: int) -> "Subset":
        """Entry I_r, with r read cyclically (any integer works)."""
        if not isinstance(r, int):
            raise ValidationError(f"entry index {r!r} is not an integer")
        return self.entries[(r - 1) % self.n]

    def __repr__(self) -> str:
        from .text import format_necklace

        return f"GrassmannNecklace({format_necklace(self)!r})"


def _necklace(masks: tuple[int, ...]) -> GrassmannNecklace:
    """A necklace with these entry masks, without the checks, for masks known valid."""
    necklace = object.__new__(GrassmannNecklace)
    necklace.__dict__["masks"] = masks
    return necklace


class NecklaceViolation(_Value):
    __match_args__ = ("index", "clause", "detail")

    def __init__(self, index: int, clause: str, detail: str) -> None:
        self.__dict__.update(index=index, clause=clause, detail=detail)

    def __str__(self) -> str:
        return f"entry {self.index}: [{self.clause}] {self.detail}"


def _mask_violations(masks: Sequence[int]) -> list[NecklaceViolation]:
    """The size and step violations of n entry masks on a ground set of size n."""
    out = []
    n = len(masks)
    k = masks[0].bit_count()
    for idx, mask in enumerate(masks, start=1):
        if mask.bit_count() != k:
            out.append(NecklaceViolation(idx, "size", f"size {mask.bit_count()} differs from size {k} of entry 1"))
    bit = 1
    for i in range(1, n + 1):
        cur = masks[i - 1]
        nxt = masks[i % n]
        if not cur & bit:
            if nxt != cur:
                out.append(NecklaceViolation(i, "step", f"{i} is absent from I_{i} but I_{i % n + 1} != I_{i}"))
        else:
            dropped = cur ^ bit
            if dropped & ~nxt:
                out.append(NecklaceViolation(i, "step", f"I_{i % n + 1} loses more than element {i} from I_{i}"))
            elif (nxt & ~dropped).bit_count() != 1:
                out.append(NecklaceViolation(i, "step", f"I_{i % n + 1} must add exactly one element to I_{i} minus {i}"))
        bit <<= 1
    return out


def necklace_of(p: DecoratedPermutation) -> GrassmannNecklace:
    """Grassmann necklace of a decorated permutation.

    Entry I_r collects the i that arrive from the left reading clockwise
    from r (i strictly before its preimage in the order starting at r),
    together with all -1 fixed points.  Only I_1 is read off that way; the
    step rule carries it round: I_{r+1} is I_r with r swapped for its image
    when r is in I_r, and I_r otherwise.
    """
    _check_type(p, DecoratedPermutation)
    images = p.images
    n = len(images)
    mask = 0
    for i, c in p.colors:
        if c == -1:
            mask |= 1 << (i - 1)
    for pre, i in enumerate(images, start=1):
        if i < pre:  # read from 1, i comes before its preimage
            mask |= 1 << (i - 1)
    masks = []
    for r in range(1, n + 1):
        masks.append(mask)
        bit = 1 << (r - 1)
        if mask & bit:
            mask = mask ^ bit | 1 << (images[r - 1] - 1)
    return _necklace(tuple(masks))


def perm_of(necklace: GrassmannNecklace) -> DecoratedPermutation:
    """Decorated permutation of a Grassmann necklace (inverse of necklace_of).

    Read off the steps: when I_{i+1} swaps i for j the permutation sends i
    to j; when the entry repeats, i is a fixed point, colored -1 when i sits
    in I_i (coloop) and +1 otherwise (loop).  Images that are not a
    permutation (an unchecked necklace's) go to the checking constructor.
    """
    _check_type(necklace, GrassmannNecklace)
    masks = necklace.masks
    n = len(masks)
    images = [0] * n
    colors = {}
    for i in range(1, n + 1):
        cur = masks[i - 1]
        bit = 1 << (i - 1)
        if not cur & bit:
            images[i - 1] = i
            colors[i] = 1
            continue
        gained = masks[i % n] & ~(cur ^ bit)
        if gained.bit_count() != 1:
            raise InvalidNecklaceError([NecklaceViolation(i, "step", "entry does not follow the step rule")])
        j = gained.bit_length()
        images[i - 1] = j
        if j == i:
            colors[i] = -1
    # every image is at least 1, so n distinct ones up to n are a permutation
    if len(set(images)) == n and max(images) <= n:
        return _perm(tuple(images), tuple(colors.items()))
    return DecoratedPermutation.of(tuple(images), colors)
