"""Positroid combinatorics on the cyclically ordered ground set {1, ..., n}.

A positroid can be recorded in three interchangeable forms:

* a decorated permutation: a permutation of {1, ..., n} whose fixed points
  each carry a color +1 or -1,
* a Grassmann necklace: a cyclic sequence I_1, ..., I_n of k-subsets obeying
  a step rule (I_{i+1} is I_i with i swapped out, or I_i unchanged),
* the explicit family of its bases.

This module holds the value types, the shifted cyclic and Gale orders, the
bijection between decorated permutations and necklaces, and basis enumeration
from a necklace via Gale bounds.  Every function is pure and every value is
immutable: a value type derives from `_Value`, its constructor stores the
fields in `__dict__`, and assigning or deleting one raises `AttributeError`.
`repr`, `==` and `hash` read the fields in order, as a frozen data class's
would.  The library uses no data classes, whose module loads `inspect`, `ast`,
`dis` and `tokenize`: several milliseconds of a one-shot CLI call.  Ground
sets are capped at 64 elements so subsets fit in a machine word.

Validation happens once, at the boundary: the public constructors and their
builders, the parsers and the public functions check what they are given, each
input rule through its one checker (`_check_count`, `_check_element`,
`_check_color`).  Values built from values already checked are made with the
private `_subset`, `_perm`, `_necklace` and `_family`, which skip the checks,
and the hot loops and the checks themselves read masks and image tuples
directly.  The walks `minors.contract` and `restrict` build their results
unchecked too, and the sweep guards that each is a permutation, so that a
faulty walk is reported rather than trusted.  One exception:
`oracle.oracle_necklace` returns the Gale minima of any family unchecked,
and for a family that is not a matroid they need not form a Grassmann
necklace.

A necklace holds the masks of its entries, one int each, and `_necklace`
takes those masks.  Its `Subset` entries are built only when a caller reads
`entries` (a trace, the JSON form, `entry(r)`), so the conversions, the
swap formulas, the text forms and the sweep never build one; the step rule
is checked on masks by `_mask_violations`, which `necklace_violations` and
`parse_necklace` share.

Subsets cross the text boundary by constant tables built at import.  Out,
a mask is read one hexadecimal digit (4 elements) at a time: row r of
`_CHUNK_MEMBERS` and `_CHUNK_TEXT` maps digit r of the mask, counted from the
lowest, to the elements it holds, as a tuple and as comma-terminated text.
In, `_TOKEN_BIT` maps each canonical element token "1" ... "64" to its bit,
and the parsers add the bits of a subset's tokens.  A token not in the table
("03", "+3", "1_0", "x", "", "65", ...), a repeated element, or an element
that does not fit in n sends that subset down the `int()` path: it reads
every token with `int()` and checks the elements with `Subset.of`, so it
accepts what `int()` accepts and reports the first bad entry.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import chain
from operator import getitem

MAX_GROUND_SET = 64

# Row r maps a hexadecimal digit d to the members 4r + 1 ... 4r + 4 that d
# holds: 16 rows of 16 entries each (about 44 KiB with `_CHUNK_TEXT`).
_CHUNK_MEMBERS = tuple(
    {f"{d:x}": tuple(4 * r + i for i in range(1, 5) if d >> (i - 1) & 1) for d in range(16)}
    for r in range(MAX_GROUND_SET // 4)
)
# The same members as text, each followed by a comma: joining a mask's rows
# and dropping the last character gives its comma-joined members.
_CHUNK_TEXT = tuple({d: "".join(f"{e}," for e in members) for d, members in row.items()} for row in _CHUNK_MEMBERS)
_TOKEN_BIT = {str(e): 1 << (e - 1) for e in range(1, MAX_GROUND_SET + 1)}


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
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"not a Grassmann necklace: {lines}")


def _check_count(x: int, what: str = "ground set size", cap: int | None = MAX_GROUND_SET) -> None:
    """Check x, a count: a positive int, not a bool, and at most cap unless that is None."""
    # a plain int passes the class test as cheaply as isinstance; a bool does not
    if x.__class__ is not int and (x.__class__ is bool or not isinstance(x, int)) or x < 1:
        raise ValidationError(f"{what} must be a positive integer, got {x!r}")
    if cap is not None and x > cap:
        raise ValidationError(f"{what} {x} exceeds the cap of {cap}")


def _check_element(i: int, n: int, what: str = "element") -> int:
    """i checked against 1..n, as a plain int: True is the element 1."""
    if not isinstance(i, int) or not 1 <= i <= n:
        raise ValidationError(f"{what} {i!r} is out of range 1..{n}")
    return int(i)


def _check_operands(n: int, *operands: tuple[int, str]) -> None:
    _check_count(n)
    for v, what in operands:
        _check_element(v, n, what)


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


def succ(i: int, n: int) -> int:
    """Clockwise neighbor of i on the n-cycle (n wraps to 1)."""
    _check_operands(n, (i, "element"))
    return i % n + 1


def pred(i: int, n: int) -> int:
    """Counterclockwise neighbor of i on the n-cycle (1 wraps to n)."""
    _check_operands(n, (i, "element"))
    return (i - 2) % n + 1


def cyclic_lt(a: int, b: int, t: int, n: int) -> bool:
    """Strict comparison in the shifted cyclic order starting at t.

    The order reads t < t+1 < ... < n < 1 < ... < t-1, so every element is
    comparable and t is the minimum.
    """
    _check_operands(n, (a, "left operand"), (b, "right operand"), (t, "start"))
    return (a - t) % n < (b - t) % n


class Subset(_Value):
    """Subset of {1, ..., n}, stored as a bitmask (bit i-1 holds element i)."""

    __match_args__ = ("n", "mask")

    def __init__(self, n: int, mask: int) -> None:
        _check_count(n)
        if mask.__class__ is bool or not isinstance(mask, int) or mask < 0 or mask >> n:
            raise ValidationError(f"mask {mask!r} does not fit in a {n}-element ground set")
        self.__dict__.update(n=n, mask=mask)

    def __eq__(self, other):
        return (self.n, self.mask) == (other.n, other.mask) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "Subset":
        _check_count(n)
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
        # the mask's hex digits, lowest first, pick one table row each
        return tuple(chain.from_iterable(map(getitem, _CHUNK_MEMBERS, f"{self.mask:x}"[::-1])))

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
        if not isinstance(other, Subset):
            raise TypeError(f"expected a Subset, got {type(other).__name__}")
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


def gale_leq(a: Subset, b: Subset, t: int) -> bool:
    """Gale partial order at starting point t: componentwise <=_t comparison.

    Both subsets are sorted increasingly in the shifted order starting at t
    and compared position by position.  Only equal-size subsets of the same
    ground set are comparable.
    """
    if not isinstance(a, Subset) or not isinstance(b, Subset):
        raise TypeError("gale_leq expects Subset operands")
    a._same_ground(b)
    _check_element(t, a.n, "start")
    if len(a) != len(b):
        raise ValidationError(f"Gale order compares equal-size subsets, got sizes {len(a)} and {len(b)}")
    return all((b.mask & prefix).bit_count() <= count for prefix, count in _gale_bounds(a.mask, t, a.n))


def gale_extremum(d: Subset, t: int, direction: str = "max") -> int:
    """Largest or smallest member of d in the shifted order starting at t."""
    if direction not in ("max", "min"):
        raise ValidationError(f"direction must be 'max' or 'min', got {direction!r}")
    _check_element(t, d.n, "start")
    return (_shifted_max if direction == "max" else _shifted_min)(d.mask, t)


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


def in_cyclic_interval(x: int, a: int, b: int, n: int) -> bool:
    """True when x lies strictly inside the clockwise open interval (a, b).

    Reading clockwise from a, the interval collects everything after a and
    before b.  Endpoints a and b must differ.
    """
    _check_operands(n, (x, "element"), (a, "left endpoint"), (b, "right endpoint"))
    if a == b:
        raise ValidationError("open cyclic interval needs distinct endpoints")
    return x != a and (x - a) % n < (b - a) % n


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
            # a plain int passes the class test as cheaply as isinstance; a
            # bool is an int that names no element
            if v.__class__ is not int and (v.__class__ is bool or not isinstance(v, int)) or not 1 <= v <= n:
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.images, self.colors) == (other.images, other.colors)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.images, self.colors))

    @classmethod
    def of(cls, images: Iterable[int], colors: Mapping[int, int] | None = None) -> "DecoratedPermutation":
        """Build from any iterable of images and a fixed point -> color mapping."""
        pairs = tuple(dict(colors or {}).items())
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
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
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
        self.color(i)  # raises when i is not fixed
        return _perm(self.images, tuple((j, color if j == i else c) for j, c in self.colors))

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
    return _perm(p.inverse(), tuple((i, -c) for i, c in p.colors))


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
        if not entries:
            raise ValidationError("a Grassmann necklace needs at least one entry")
        self.__dict__["masks"] = validate_necklace(entries).masks

    def __eq__(self, other):
        return self.masks == other.masks if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.masks,))

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
    if len(entries) == 0:
        return [NecklaceViolation(0, "shape", "no entries")]
    for idx, e in enumerate(entries, start=1):
        if not isinstance(e, Subset):
            raise TypeError(f"entry {idx} is not a Subset")
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
                out.append(NecklaceViolation(i, "step", f"{i} is absent from I_{i} but I_{succ(i, n)} != I_{i}"))
        else:
            dropped = cur ^ bit
            if dropped & ~nxt:
                out.append(NecklaceViolation(i, "step", f"I_{succ(i, n)} loses more than element {i} from I_{i}"))
            elif (nxt & ~dropped).bit_count() != 1:
                out.append(NecklaceViolation(i, "step", f"I_{succ(i, n)} must add exactly one element to I_{i} minus {i}"))
        bit <<= 1
    return out


def validate_necklace(entries: Sequence[Subset]) -> GrassmannNecklace:
    """Check the step rule and wrap the entries, or raise with all violations."""
    bad = necklace_violations(entries)
    if bad:
        raise InvalidNecklaceError(bad)
    return _necklace(tuple([e.mask for e in entries]))


def necklace_step(entry: Subset, i: int, image: int) -> Subset:
    """Successor entry under the step rule when the permutation sends i to image."""
    i = _check_element(i, entry.n)
    image = _check_element(image, entry.n, "image")
    if i not in entry:
        return entry
    rest = entry.mask ^ 1 << (i - 1)
    if rest >> (image - 1) & 1:
        raise ValidationError(f"image {image} is already in {entry} minus {i}")
    return _subset(entry.n, rest | 1 << (image - 1))


def necklace_of(p: DecoratedPermutation) -> GrassmannNecklace:
    """Grassmann necklace of a decorated permutation.

    Entry I_r collects the i that arrive from the left reading clockwise
    from r (i strictly before its preimage in the order starting at r),
    together with all -1 fixed points.  Only I_1 is read off that way; the
    step rule carries it round: I_{r+1} is I_r with r swapped for its image
    when r is in I_r, and I_r otherwise.
    """
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
    in I_i (coloop) and +1 otherwise (loop).
    """
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
    return DecoratedPermutation.of(tuple(images), colors)


def bases_of(necklace: GrassmannNecklace) -> "BasisFamily":
    """All k-subsets lying Gale-above every necklace entry.

    H is a basis exactly when I_t <=_t H for each starting point t; the
    necklace entries are the Gale minima of the family they cut out.  Each
    bound is a list of prefix-count tests (`_gale_bounds`); the tests of all
    n entries are pooled, less duplicates and those every k-subset passes.
    The bounds keep every coloop (in all entries) and no loop (in no entry),
    so the coloops join each candidate and the rest are chosen among the
    elements in some entries but not all.
    """
    from itertools import combinations

    masks = necklace.masks
    n, k = len(masks), masks[0].bit_count()
    coloops, somewhere = (1 << n) - 1, 0
    for mask in masks:
        coloops &= mask
        somewhere |= mask
    free = somewhere & ~coloops
    bounds = {pair for t, mask in enumerate(masks, start=1) for pair in _gale_bounds(mask, t, n)}
    tests = [(prefix, count) for prefix, count in bounds if prefix.bit_count() > count]
    found = []
    for combo in combinations([1 << p for p in range(n) if free >> p & 1], k - coloops.bit_count()):
        mask = coloops + sum(combo)
        for prefix, count in tests:
            if (mask & prefix).bit_count() > count:
                break
        else:
            found.append(_subset(n, mask))
    return _family(n, k, frozenset(found))


class BasisFamily(_Value):
    """Family of k-subsets of {1, ..., n}, the bases of a rank-k matroid.

    A real family is nonempty; the empty value exists only as a sentinel for
    minor operations that kill every basis (build it with BasisFamily.empty).
    The constructor checks n, the rank k and that every basis is a k-subset
    of {1, ..., n}.
    """

    __match_args__ = ("n", "k", "bases")

    def __init__(self, n: int, k: int, bases: frozenset[Subset]) -> None:
        _check_count(n)
        if k.__class__ is bool or not isinstance(k, int) or not 0 <= k <= n:
            raise ValidationError(f"rank {k!r} out of range for n={n}")
        if not isinstance(bases, frozenset):
            raise ValidationError("bases must be a frozenset; BasisFamily.of takes other forms")
        for b in bases:
            _check_basis(b, n, k)
        self.__dict__.update(n=n, k=k, bases=bases)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.k, self.bases) == (other.n, other.k, other.bases)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.bases))

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "BasisFamily":
        _check_count(n)
        collected = set()
        k = None
        for s in sets:
            sub = s if isinstance(s, Subset) else Subset.of(n, s)
            if k is None:
                k = len(sub)  # the first basis sets the rank
            _check_basis(sub, n, k)
            collected.add(sub)
        if k is None:
            raise ValidationError("a basis family needs at least one basis")
        return _family(n, k, frozenset(collected))

    @classmethod
    def empty(cls, n: int, k: int) -> "BasisFamily":
        return cls(n, k, frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.bases

    def sorted_bases(self) -> list[Subset]:
        return sorted(self.bases, key=lambda s: s.members)

    def __contains__(self, s: Subset) -> bool:
        return s in self.bases

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sorted_bases())

    def __repr__(self) -> str:
        return f"BasisFamily.of({self.n}, {[list(s.members) for s in self.sorted_bases()]})"


def _check_basis(b: Subset, n: int, k: int) -> None:
    """Check b, a basis of a rank-k family: a k-subset of {1, ..., n}."""
    if not isinstance(b, Subset):
        raise TypeError(f"basis {b!r} is not a Subset")
    if b.n != n:
        raise ValidationError(f"basis {b} lives on n={b.n}, expected n={n}")
    if b.mask.bit_count() != k:
        raise ValidationError(f"basis {b} has size {len(b)}, expected {k}")


def _family(n: int, k: int, bases: frozenset[Subset]) -> BasisFamily:
    """BasisFamily(n, k, bases) without the checks, for k-subsets known to live on n."""
    family = object.__new__(BasisFamily)
    fields = family.__dict__
    fields["n"] = n
    fields["k"] = k
    fields["bases"] = bases
    return family


# ---------------------------------------------------------------------------
# Text and object forms.
#
# Decorated permutation: comma-separated images, every fixed point suffixed
# with its sign, e.g. "8,1,4,2,5+,7,3,6".  Necklace: entries joined by
# semicolons, each a comma-separated increasing subset, e.g. "1,2;2,3;1,3".
# Basis families use the necklace separator.  Whitespace is ignored.

_PERM_TOKEN = re.compile(r"(\d+)([+-])?\Z")


def format_perm(p: DecoratedPermutation) -> str:
    toks = []
    for i, v in enumerate(p.images, start=1):
        if v == i:
            toks.append(f"{v}+" if p.color(i) == 1 else f"{v}-")
        else:
            toks.append(str(v))
    return ",".join(toks)


def parse_perm(text: str) -> DecoratedPermutation:
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty decorated permutation")
    toks = s.split(",")
    n = len(toks)
    if n > MAX_GROUND_SET:
        raise ValidationError(f"{n} images exceed the ground set cap of {MAX_GROUND_SET}")
    images = []
    colors = {}
    seen = {}
    for pos, tok in enumerate(toks, start=1):
        m = _PERM_TOKEN.match(tok)
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
    return _format_mask(s.mask)


def _format_mask(mask: int) -> str:
    # the mask's hex digits, lowest first, pick one table row each
    return "".join(map(getitem, _CHUNK_TEXT, f"{mask:x}"[::-1]))[:-1]


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
    return _read_subset(text, "".join(text.split()), n)


def _read_subset(text: str, s: str, n: int) -> Subset:
    """Subset named by s, which is text without its whitespace."""
    if not s:
        return Subset.empty(n)
    mask = _token_mask(s)
    if mask >= 0:
        _check_count(n)  # after the tokens: a non-integer entry is reported first
        if not mask >> n:
            return _subset(n, mask)
    try:
        elements = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValidationError(f"subset {text!r} has a non-integer entry") from None
    return Subset.of(n, elements)


def format_necklace(necklace: GrassmannNecklace) -> str:
    return ";".join(map(_format_mask, necklace.masks))


def parse_necklace(text: str) -> GrassmannNecklace:
    """Parse and validate a semicolon-joined necklace; n is the entry count."""
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
                mask = _read_subset(part, part, n).mask
            except ValidationError as e:
                raise ValidationError(f"entry {idx}: {e}") from None
        masks.append(mask)
    # n entries on a ground set of size n: only the size and step rules can fail
    bad = _mask_violations(masks)
    if bad:
        raise InvalidNecklaceError(bad)
    return _necklace(tuple(masks))


def format_bases(family: BasisFamily) -> str:
    return ";".join(map(format_subset, family.sorted_bases()))


def _infer_n(s: str) -> int:
    """Ground set size named by a whitespace-free basis list: its largest element."""
    tokens = s.replace(";", ",").split(",")
    distinct = set(tokens) - {""}
    if distinct and distinct <= _TOKEN_BIT.keys():
        return max(map(_TOKEN_BIT.__getitem__, distinct)).bit_length()
    elements = []
    for tok in tokens:
        if tok:
            try:
                elements.append(int(tok))
            except ValueError:
                raise ValidationError(f"basis list has a non-integer entry {tok!r}") from None
    if not elements:
        raise ValidationError("cannot infer the ground set size; pass n explicitly")
    biggest = max(elements)
    if biggest < 1:
        raise ValidationError(f"element {elements[0]} is out of range: elements start at 1")
    return biggest


def parse_bases(text: str, n: int | None = None) -> BasisFamily:
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty basis family")
    if n is None:
        n = _infer_n(s)
    return BasisFamily.of(n, [_read_subset(part, part, n) for part in s.split(";")])


def perm_to_obj(p: DecoratedPermutation) -> dict:
    return {
        "n": p.n,
        "perm": list(p.images),
        "col": {str(i): c for i, c in p.colors},
    }


def necklace_to_obj(necklace: GrassmannNecklace) -> dict:
    return {
        "n": necklace.n,
        "k": necklace.k,
        "entries": [list(e.members) for e in necklace.entries],
    }


def bases_to_obj(family: BasisFamily) -> dict:
    return {
        "n": family.n,
        "k": family.k,
        "bases": [list(s.members) for s in family.sorted_bases()],
    }
