"""Positroid combinatorics on the cyclically ordered ground set {1, ..., n}.

A positroid can be recorded in three interchangeable forms:

* a decorated permutation: a permutation of {1, ..., n} whose fixed points
  each carry a color +1 or -1,
* a Grassmann necklace: a cyclic sequence I_1, ..., I_n of k-subsets obeying
  a step rule (I_{i+1} is I_i with i swapped out, or I_i unchanged),
* the explicit family of its bases.

This module holds the value types and the bijection between decorated
permutations and necklaces; `families` holds the basis families, enumerated
from a necklace's Gale bounds, and `orders` the cyclic and Gale orders as
checked public functions.  `__all__` lists what `positroids` takes from here.
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
built from values already checked are made with the private `_subset`,
`_perm`, `_necklace` and `families._family`, which skip the checks, and the
hot loops and the checks themselves read masks and image tuples directly.  The
walks `minors.contract` and `restrict` build their results unchecked too, and
the sweep guards that each is a permutation, so that a faulty walk is reported
rather than trusted.  One exception: `oracle.oracle_necklace` returns the Gale
minima of any family unchecked, and for a family that is not a matroid they
need not form a Grassmann necklace.

A necklace holds the masks of its entries, one int each, and `_necklace`
takes those masks.  Its `Subset` entries are built only when a caller reads
`entries` or `entry(r)`, so the conversions, the swap formulas, the text and
JSON forms, the traces and the sweep never build one; the step rule is checked
on masks by `_mask_violations`, which `necklace_violations` and
`parse_necklace` share.  A basis family likewise holds its bases' masks.

Subsets and permutations cross the text boundary by constant tables built
at import.  Out, a mask's members are read a hexadecimal digit at a time
(`_CHUNK_MEMBERS`) and its text a byte at a time (`_BYTE_TEXT`).  In,
`_TOKEN_BIT` maps each canonical element token "1" ... "64" to its bit,
and `_PERM_TOKEN` each canonical image token, signed or not, to its image.
A token not in its table ("03", "+3", "1_0", "x", "", "65", ...), a
repeated element, an element that does not fit in n, or images that are no
permutation or signs off the fixed points send the text down the slow path,
which reads every token with `int()`, so that it accepts what `int()` reads
and reports the first bad entry or token.
"""

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import chain
from operator import getitem

__all__ = [
    "MAX_GROUND_SET", "DecoratedPermutation", "GrassmannNecklace", "InvalidNecklaceError", "NecklaceViolation",
    "PositroidError", "PreconditionError", "Subset", "ValidationError", "dual", "format_necklace", "format_perm",
    "format_subset", "loop_coloop_status", "necklace_of", "necklace_to_obj", "necklace_violations", "parse_necklace",
    "parse_perm", "parse_subset", "perm_of", "perm_to_obj", "validate_necklace",
]

MAX_GROUND_SET = 64


def _byte_row(r: int) -> tuple[str, ...]:
    """Row r of `_BYTE_TEXT`: byte b to the members 8r + 1 ... 8r + 8 that b holds, each followed by a comma.

    Element e doubles the row: the texts of the bytes with e's bit set are
    those without it, each followed by "e,".
    """
    texts = [""]
    for e in range(8 * r + 1, 8 * r + 9):
        token = f"{e},"
        texts += [text + token for text in texts]
    return tuple(texts)


def _chunk_row(r: int) -> dict[str, tuple[int, ...]]:
    """Row r of `_CHUNK_MEMBERS`: hex digit d to the members 4r + 1 ... 4r + 4 that d holds, doubled as above."""
    members = [()]
    for e in range(4 * r + 1, 4 * r + 5):
        members += [m + (e,) for m in members]
    return dict(zip("0123456789abcdef", members))


# 8 rows of 256 entries: joining the rows of a mask's 8 bytes, lowest first,
# and dropping the last character gives its comma-joined members.
_BYTE_TEXT = tuple(map(_byte_row, range(MAX_GROUND_SET // 8)))
# 16 rows of 16 entries each
_CHUNK_MEMBERS = tuple(map(_chunk_row, range(MAX_GROUND_SET // 4)))
_TOKEN_BIT = {str(e): 1 << (e - 1) for e in range(1, MAX_GROUND_SET + 1)}
# Each canonical image token, with or without a sign, to its image; `_SIGN`
# reads the sign, and a token without one is not in it.
_PERM_TOKEN = {f"{e}{sign}": e for e in range(1, MAX_GROUND_SET + 1) for sign in ("", "+", "-")}
_SIGN = {"+": 1, "-": -1}


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


class Subset(_Value):
    """Subset of {1, ..., n}, stored as a bitmask (bit i-1 holds element i)."""

    __match_args__ = ("n", "mask")

    def __init__(self, n: int, mask: int) -> None:
        _check_count(n)
        if mask.__class__ is bool or not isinstance(mask, int) or mask < 0 or mask >> n:
            raise ValidationError(f"mask {mask!r} does not fit in a {n}-element ground set")
        self.__dict__.update(n=n, mask=mask)

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "Subset":
        _check_count(n)
        _check_iterable(elements, "elements")
        mask = 0
        for e in elements:
            mask |= 1 << (_check_element(e, n) - 1)
        return _subset(n, mask)

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        _check_count(n)
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_members(self.mask))

    def __contains__(self, e: int) -> bool:
        return isinstance(e, int) and 1 <= e <= self.n and bool(self.mask >> (e - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def add(self, e: int) -> "Subset":
        return _subset(self.n, self.mask | 1 << (_check_element(e, self.n) - 1))

    def discard(self, e: int) -> "Subset":
        return _subset(self.n, self.mask & ~(1 << (_check_element(e, self.n) - 1)))

    def _same_ground(self, other: "Subset") -> None:
        _check_type(other, Subset)
        if other.n != self.n:
            raise ValidationError(f"mixed ground sets: n={self.n} vs n={other.n}")

    def __or__(self, other: "Subset") -> "Subset":
        self._same_ground(other)
        return _subset(self.n, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._same_ground(other)
        return _subset(self.n, self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._same_ground(other)
        return _subset(self.n, self.mask & ~other.mask)

    def issubset(self, other: "Subset") -> bool:
        self._same_ground(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"Subset.of({self.n}, {list(self.members)})"

    def __str__(self) -> str:
        return "{" + format_subset(self) + "}"


def _members(mask: int) -> Iterator[int]:
    """The members of a mask, increasing: its hex digits, lowest first, pick one table row each."""
    return chain.from_iterable(map(getitem, _CHUNK_MEMBERS, f"{mask:x}"[::-1]))


def _subset(n: int, mask: int) -> Subset:
    """Subset(n, mask) without the checks, for a mask known to fit in n."""
    s = object.__new__(Subset)
    fields = s.__dict__
    fields["n"] = n
    fields["mask"] = mask
    return s


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
    with validate_necklace; `oracle.oracle_necklace` builds its value without
    the check and, for a family that is not a matroid, can return one that
    breaks the step rule.

    What is stored is `masks`, the entries' bitmasks; equality and hashing
    use them.  `entries`, the Subsets, is built from the masks on first
    access and kept.
    """

    __match_args__ = ("masks",)

    def __init__(self, entries: Sequence[Subset]):
        _check_iterable(entries, "entries", Sequence)
        if not entries:
            raise ValidationError("a Grassmann necklace needs at least one entry")
        self.__dict__["masks"] = validate_necklace(entries).masks

    @cached_property
    def entries(self) -> tuple[Subset, ...]:
        n = len(self.masks)
        return tuple([_subset(n, mask) for mask in self.masks])

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def k(self) -> int:
        return self.masks[0].bit_count()

    def entry(self, r: int) -> Subset:
        """Entry I_r, with r read cyclically (any integer works)."""
        if not isinstance(r, int):
            raise ValidationError(f"entry index {r!r} is not an integer")
        return self.entries[(r - 1) % self.n]

    def __repr__(self) -> str:
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


def necklace_violations(entries: Sequence[Subset]) -> list[NecklaceViolation]:
    """All step-rule and shape violations of a candidate necklace."""
    _check_iterable(entries, "entries", Sequence)
    if len(entries) == 0:
        return [NecklaceViolation(0, "shape", "no entries")]
    for idx, e in enumerate(entries, start=1):
        if not isinstance(e, Subset):
            raise ValidationError(f"entry {idx} is not a Subset")
    n = entries[0].n
    out = [NecklaceViolation(idx, "shape", f"ground set n={e.n} differs from n={n}")
           for idx, e in enumerate(entries, start=1) if e.n != n]
    if out:
        return out
    if len(entries) != n:
        return [NecklaceViolation(0, "shape", f"{len(entries)} entries for ground set of size {n}")]
    return _mask_violations([e.mask for e in entries])


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


def validate_necklace(entries: Sequence[Subset]) -> GrassmannNecklace:
    """Check the step rule and wrap the entries, or raise with all violations."""
    bad = necklace_violations(entries)
    if bad:
        raise InvalidNecklaceError(bad)
    return _necklace(tuple([e.mask for e in entries]))


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


# ---------------------------------------------------------------------------
# Text and object forms.
#
# Decorated permutation: comma-separated images, every fixed point suffixed
# with its sign, e.g. "8,1,4,2,5+,7,3,6".  Necklace: entries joined by
# semicolons, each a comma-separated increasing subset, e.g. "1,2;2,3;1,3".
# Whitespace is ignored.  `re` compiles `_IMAGE_TOKEN` (and caches it) only
# when a permutation text leaves the table path.

_IMAGE_TOKEN = r"(\d+)([+-])?\Z"


def format_perm(p: DecoratedPermutation) -> str:
    _check_type(p, DecoratedPermutation)
    toks = list(map(str, p.images))
    for i, c in p.colors:
        toks[i - 1] += "+" if c == 1 else "-"
    return ",".join(toks)


def _table_perm(s: str, toks: list[str]) -> DecoratedPermutation | None:
    """The value of a permutation's tokens read by `_PERM_TOKEN`, or None.

    None means a token is not in the table, the images are no permutation or
    the signs are not on exactly the fixed points, and the caller takes the
    regex loop.  s is the tokens joined: each token holds at most one sign, so
    counting the signs in s counts the signed tokens.
    """
    try:
        images = tuple(map(_PERM_TOKEN.__getitem__, toks))
        colors = tuple([(i, _SIGN[toks[i - 1][-1]]) for i, v in enumerate(images, 1) if v == i])
    except KeyError:
        return None
    n = len(images)
    # every image is at least 1, so n distinct ones up to n are a permutation
    if max(images) <= n and len(set(images)) == n and s.count("+") + s.count("-") == len(colors):
        return _perm(images, colors)
    return None


def parse_perm(text: str) -> DecoratedPermutation:
    _check_type(text, str)
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty decorated permutation")
    toks = s.split(",")
    n = len(toks)
    if n > MAX_GROUND_SET:
        raise ValidationError(f"{n} images exceed the ground set cap of {MAX_GROUND_SET}")
    p = _table_perm(s, toks)
    if p is not None:
        return p
    images = []
    colors = {}
    seen = {}
    for pos, tok in enumerate(toks, start=1):
        m = re.match(_IMAGE_TOKEN, tok)
        if not m:
            raise ValidationError(f"token {pos}: {tok!r} is not an image with an optional sign")
        v = int(m.group(1))
        sign = m.group(2)
        if not 1 <= v <= n:
            raise ValidationError(f"token {pos}: image {v} is out of range 1..{n}")
        if v in seen:
            raise ValidationError(f"token {pos}: image {v} already used at token {seen[v]}")
        seen[v] = pos
        if v == pos:
            if sign is None:
                raise ValidationError(f"token {pos}: fixed point {v} needs a + or - sign")
            colors[pos] = 1 if sign == "+" else -1
        elif sign is not None:
            raise ValidationError(f"token {pos}: sign on {v}, which is not a fixed point here")
        images.append(v)
    # the loop has checked range, repeats and signs, so the value is valid as built
    return _perm(tuple(images), tuple(colors.items()))


def format_subset(s: Subset) -> str:
    _check_type(s, Subset)
    return _format_mask(s.mask)


def _format_mask(mask: int) -> str:
    # the mask's 8 bytes, lowest first, pick one table row each
    return "".join(map(getitem, _BYTE_TEXT, mask.to_bytes(8, "little")))[:-1]


def _token_mask(s: str) -> int:
    """Mask of a whitespace-free subset text read by `_TOKEN_BIT`, or -1.

    -1 means a token is not in the table or an element repeats, and the
    caller takes the `int()` path.  Distinct bits add without a carry, so a
    repeat shows as fewer bits than tokens.
    """
    if not s:
        return 0
    tokens = s.split(",")
    try:
        mask = sum(map(_TOKEN_BIT.__getitem__, tokens))
    except KeyError:
        return -1
    return mask if mask.bit_count() == len(tokens) else -1


def parse_subset(text: str, n: int) -> Subset:
    _check_type(text, str)
    return _subset(n, _read_mask(text, "".join(text.split()), n))


def _read_mask(text: str, s: str, n: int) -> int:
    """Mask of the subset of {1, ..., n} named by s, which is text without its whitespace."""
    mask = _token_mask(s)
    if mask >= 0:
        _check_count(n)  # after the tokens: a non-integer entry is reported first
        if not mask >> n:
            return mask
    try:
        elements = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValidationError(f"subset {text!r} has a non-integer entry") from None
    return Subset.of(n, elements).mask


def format_necklace(necklace: GrassmannNecklace) -> str:
    _check_type(necklace, GrassmannNecklace)
    return ";".join(map(_format_mask, necklace.masks))


def parse_necklace(text: str) -> GrassmannNecklace:
    """Parse and validate a semicolon-joined necklace; n is the entry count."""
    _check_type(text, str)
    s = "".join(text.split())
    parts = s.split(";")
    n = len(parts)
    if n > MAX_GROUND_SET:
        raise ValidationError(f"{n} entries exceed the ground set cap of {MAX_GROUND_SET}")
    masks = []
    for idx, part in enumerate(parts, start=1):
        mask = _token_mask(part)
        if mask >> n:  # -1 as well: the int() path accepts or reports the entry
            try:
                mask = _read_mask(part, part, n)
            except ValidationError as e:
                raise ValidationError(f"entry {idx}: {e}") from None
        masks.append(mask)
    # n entries on a ground set of size n: only the size and step rules can fail
    bad = _mask_violations(masks)
    if bad:
        raise InvalidNecklaceError(bad)
    return _necklace(tuple(masks))


def perm_to_obj(p: DecoratedPermutation) -> dict:
    _check_type(p, DecoratedPermutation)
    return {
        "n": p.n,
        "perm": list(p.images),
        "col": {str(i): c for i, c in p.colors},
    }


def necklace_to_obj(necklace: GrassmannNecklace) -> dict:
    _check_type(necklace, GrassmannNecklace)
    return {
        "n": necklace.n,
        "k": necklace.k,
        "entries": [list(_members(mask)) for mask in necklace.masks],
    }
