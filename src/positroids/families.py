"""Basis families: `bases_of` from a necklace's Gale bounds, the value type, their text and JSON forms, and recognition.

Only the `bases`, `is-positroid` and `verify` commands and `oracle` read a family, so `positroids` loads this module
on the first read of one of its names, and a one-shot `necklace`, `perm`, `contract` or `restrict` never compiles it.
A family holds its bases' `masks`, a frozenset of ints, which `_family` takes unchecked: `bases_of`, `parse_bases`,
the text and JSON forms and the oracle read them, and the `Subset`s of `bases` are built only when a caller reads it.

Recognition asks about a family alone.  By Oh's theorem a positroid is cut out by its Gale minima, so `is_positroid`
needs `oracle_necklace` and `_cut_out` and no minor or sweep, and it lives here with `check_matroid`: an
`is-positroid` call loads this module and neither `minors` nor `oracle`, which imports the three.  `check_matroid`
tests basis exchange on one witness plane per element, with no 2^n-bit vector, at every n up to 64.
"""

from collections.abc import Iterable, Iterator
from functools import cached_property, reduce
from itertools import combinations
from math import comb
from operator import and_, itemgetter, or_

from .core import (
    GrassmannNecklace, PreconditionError, ValidationError, _check_count, _check_iterable, _check_type, _format_mask,
    _gale_bounds, _members, _necklace, _read_mask, _Value,
)


# Candidate k-subsets that `bases_of` tests at most, so that the bases it lists stay in memory: a larger call is
# refused.  U(11, 22), 705,432 bases, took 0.24 s at a 104 MiB peak; U(12, 24), 2.7M, 1.1 s at 340 MiB (Python 3.11).
CANDIDATE_CAP = 1 << 20


def bases_of(necklace: GrassmannNecklace) -> "BasisFamily":
    """All k-subsets lying Gale-above every necklace entry.

    H is a basis exactly when I_t <=_t H for each starting point t; the
    necklace entries are the Gale minima of the family they cut out.  Each
    bound is a list of prefix-count tests (`_gale_bounds`); the tests of all
    n entries are pooled, less duplicates and those every k-subset passes.
    The bounds keep every coloop (in all entries) and no loop (in no entry),
    so the coloops join each candidate and the rest are chosen among the
    elements in some entries but not all.  A necklace with more than
    CANDIDATE_CAP such candidates is refused with a PreconditionError.
    """
    _check_type(necklace, GrassmannNecklace)
    return _cut_out(necklace.masks)


def _cut_out(masks: tuple[int, ...], within: frozenset[int] = frozenset()) -> "BasisFamily | None":
    """`bases_of` of these entry masks, or None when they cannot cut out exactly within.

    That is when a mask in within fails their bounds, tested only when the walk would try more candidates than that
    test makes comparisons, or when the walk finds more sets than within holds, where it stops.  With no within, more
    than CANDIDATE_CAP candidates is a PreconditionError.
    """
    n, k = len(masks), masks[0].bit_count()
    coloops = reduce(and_, masks)
    free = reduce(or_, masks) & ~coloops
    candidates = comb(free.bit_count(), k - coloops.bit_count())
    if not within and candidates > CANDIDATE_CAP:
        raise PreconditionError(f"bases_of would test {candidates} candidates, past the limit of {CANDIDATE_CAP}")
    bounds = {pair for t, mask in enumerate(masks, start=1) for pair in _gale_bounds(mask, t, n)}
    tests = [(prefix, count) for prefix, count in bounds if prefix.bit_count() > count]
    if candidates > len(tests) * len(within) and any(
            (mask & prefix).bit_count() > count for mask in within for prefix, count in tests):
        return None
    found = []
    for combo in combinations([1 << p for p in range(n) if free >> p & 1], k - coloops.bit_count()):
        mask = coloops + sum(combo)
        for prefix, count in tests:
            if (mask & prefix).bit_count() > count:
                break
        else:
            found.append(mask)
            if within and len(found) > len(within):
                return None
    return _family(n, k, frozenset(found))


class BasisFamily(_Value):
    """Family of k-subsets of {1, ..., n}, the bases of a rank-k matroid.

    A real family is nonempty; the empty value exists only as a sentinel for
    minor operations that kill every basis (build it with BasisFamily.empty).
    The constructor checks n, the rank k and that every basis is a k-subset
    of {1, ..., n}.  What is stored is `masks`, the bases' bitmasks, which
    equality and hashing use; `bases`, the Subsets, is built on first read.
    """

    __match_args__ = ("n", "k", "masks")

    def __init__(self, n: int, k: int, bases: frozenset["Subset"]) -> None:
        _check_count(n)
        if k.__class__ is bool or not isinstance(k, int) or not 0 <= k <= n:
            raise ValidationError(f"rank {k!r} out of range for n={n}")
        if not isinstance(bases, frozenset):
            raise ValidationError("bases must be a frozenset; BasisFamily.of takes other forms")
        for b in bases:
            _check_basis(b, n, k)
        self.__dict__.update(n=n, k=k, masks=frozenset([b.mask for b in bases]), bases=bases)

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "BasisFamily":
        from .subsets import Subset

        _check_count(n)
        _check_iterable(sets, "sets")
        collected, k = set(), None
        for s in sets:
            # a value that is neither a Subset nor iterable goes to _check_basis, which rejects it
            sub = s if isinstance(s, Subset) or not isinstance(s, Iterable) else Subset.of(n, s)
            if k is None and isinstance(sub, Subset):
                k = len(sub)  # the first basis sets the rank
            _check_basis(sub, n, k)
            collected.add(sub)
        if k is None:
            raise ValidationError("a basis family needs at least one basis")
        return cls(n, k, frozenset(collected))  # which keeps the Subsets as `bases`

    @classmethod
    def empty(cls, n: int, k: int) -> "BasisFamily":
        return cls(n, k, frozenset())

    @cached_property
    def bases(self) -> frozenset["Subset"]:
        return frozenset(self.sorted_bases())

    @property
    def is_empty(self) -> bool:
        return not self.masks

    def _sorted_masks(self) -> list[int]:
        # in members' order: of two k-subsets, first the one whose bit string, element 1 first, is greater
        return sorted(self.masks, key=lambda mask: f"{mask:0{self.n}b}"[::-1], reverse=True)

    def sorted_bases(self) -> list["Subset"]:
        from .subsets import _subset

        return [_subset(self.n, mask) for mask in self._sorted_masks()]

    def __contains__(self, s: "Subset") -> bool:
        from .subsets import Subset

        return s.__class__ is Subset and s.n == self.n and s.mask in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator["Subset"]:
        return iter(self.sorted_bases())

    def __repr__(self) -> str:
        return f"BasisFamily.of({self.n}, {[list(_members(mask)) for mask in self._sorted_masks()]})"


def _check_basis(b: "Subset", n: int, k: int) -> None:
    """Check b, a basis of a rank-k family: a k-subset of {1, ..., n}."""
    from .subsets import Subset

    if not isinstance(b, Subset):
        raise ValidationError(f"basis {b!r} is not a Subset")
    if b.n != n:
        raise ValidationError(f"basis {b} lives on n={b.n}, expected n={n}")
    if b.mask.bit_count() != k:
        raise ValidationError(f"basis {b} has size {len(b)}, expected {k}")


def _family(n: int, k: int, masks: frozenset[int]) -> BasisFamily:
    """A family with these basis masks, without the checks, for k-subsets known to live on n."""
    family = object.__new__(BasisFamily)
    family.__dict__.update(n=n, k=k, masks=masks)
    return family


def format_bases(family: BasisFamily) -> str:
    """The bases in members' order, joined by the necklace separator ";"."""
    _check_type(family, BasisFamily)
    return ";".join(map(_format_mask, family._sorted_masks()))


def _infer_n(s: str) -> int:
    """Ground set size named by a whitespace-free basis list: its largest element."""
    tokens = s.replace(";", ",").split(",")
    elements = []
    for tok in filter(None, tokens):
        try:
            elements.append(int(tok))
        except ValueError:
            raise ValidationError(f"basis list has a non-integer entry {tok!r}") from None
    if not elements:
        raise ValidationError("cannot infer the ground set size; pass n explicitly")
    if max(elements) < 1:
        raise ValidationError(f"element {elements[0]} is out of range: elements start at 1")
    return max(elements)


def parse_bases(text: str, n: int | None = None) -> BasisFamily:
    _check_type(text, str)
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty basis family")
    if n is None:
        n = _infer_n(s)
    masks = [_read_mask(part, part, n) for part in s.split(";")]
    k = masks[0].bit_count()  # the first basis sets the rank
    for mask in masks:
        if mask.bit_count() != k:
            raise ValidationError(f"basis {{{_format_mask(mask)}}} has size {mask.bit_count()}, expected {k}")
    return _family(n, k, frozenset(masks))


def bases_to_obj(family: BasisFamily) -> dict:
    _check_type(family, BasisFamily)
    return {
        "n": family.n,
        "k": family.k,
        "bases": [list(_members(mask)) for mask in family._sorted_masks()],
    }


def oracle_necklace(family: BasisFamily) -> GrassmannNecklace:
    """Entrywise Gale minimum of the family, one entry per starting point.

    The minima of a matroid's bases form its Grassmann necklace; for a family
    that is not a matroid they need not, and come back unchecked all the same.
    Each basis is its bit string, element 1 first, written twice, so that the
    slice [t, t + n) reads it from t + 1.  Read from there, the least basis
    holds the first element where two differ, so its reading is the greatest.
    """
    _check_type(family, BasisFamily)
    if family.is_empty:
        raise PreconditionError("the empty family has no necklace")
    n, width = family.n, f"0{family.n}b"
    twice = [format(mask, width)[::-1] * 2 for mask in family.masks]
    best = [max(map(itemgetter(slice(t, t + n)), twice)) for t in range(n)]
    # the best reading from t + 1, rotated back and reversed, is the mask
    return _necklace(tuple([int((row[n - t:] + row[:n - t])[::-1], 2) for t, row in enumerate(best)]))


def is_positroid(family: BasisFamily) -> bool:
    """Whether the family is exactly cut out by its own Gale minima: False at once when a basis fails their bounds."""
    _check_type(family, BasisFamily)
    if family.is_empty:
        raise PreconditionError("the empty family is not classified")
    cut_out = _cut_out(oracle_necklace(family).masks, family.masks)
    return cut_out is not None and cut_out.masks == family.masks


def check_matroid(family: BasisFamily) -> bool:
    """Basis exchange: for bases A, B and x in A-B some y in B-A fixes A-x+y.

    Tested once per S = A - x, a basis less one element, whichever A and x
    give it: with Y the elements y outside S for which S + y is a basis, no
    basis may avoid all of Y.  A basis B avoiding x meets Y exactly in the y
    of B - A that fix A-x, and one holding x meets Y in x itself, so this is
    the pairwise statement.  The witness plane of an element has one bit per
    basis that avoids it, so the bases avoiding all of Y are one AND per y:
    |F| * k ANDs in all, and no scan of pairs of bases.
    """
    _check_type(family, BasisFamily)
    if family.is_empty:
        raise PreconditionError("the empty family is not classified")
    n = family.n
    full, width = (1 << n) - 1, f"0{n}b"
    # avoid[e]: the bases avoiding element e + 1, the columns of their complements' bit strings
    avoid = [int("".join(column), 2) for column in zip(*[format(full ^ a, width) for a in family.masks])][::-1]
    # fixers[S]: the elements y outside S with S + y a basis, as a mask
    fixers = {}
    get = fixers.get
    for a in family.masks:
        rest = a
        while rest:
            low = rest & -rest
            fixers[a ^ low] = get(a ^ low, 0) | low
            rest ^= low
    for ys in fixers.values():
        witnesses = -1
        while ys and witnesses:
            low = ys & -ys
            witnesses &= avoid[low.bit_length() - 1]
            ys ^= low
        if witnesses:
            return False
    return True
