"""Basis families: `bases_of` from a necklace's Gale bounds, the value type, and their text and JSON forms.

Only the `bases`, `is-positroid` and `verify` commands and `oracle` read a family, so `positroids` loads this module
on the first read of one of its names, and a one-shot `necklace`, `perm`, `contract` or `restrict` never compiles it.
A family holds its bases' `masks`, a frozenset of ints, which `_family` takes unchecked: `bases_of`, `parse_bases`,
the text and JSON forms and the oracle read them, and the `Subset`s of `bases` are built only when a caller reads it.
"""

from collections.abc import Iterable, Iterator
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_

from .core import (
    _TOKEN_BIT, GrassmannNecklace, Subset, ValidationError, _check_count, _check_iterable, _check_type, _format_mask,
    _gale_bounds, _members, _read_mask, _subset, _token_mask, _Value,
)


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
    _check_type(necklace, GrassmannNecklace)
    masks = necklace.masks
    n, k = len(masks), masks[0].bit_count()
    coloops = reduce(and_, masks)
    free = reduce(or_, masks) & ~coloops
    bounds = {pair for t, mask in enumerate(masks, start=1) for pair in _gale_bounds(mask, t, n)}
    tests = [(prefix, count) for prefix, count in bounds if prefix.bit_count() > count]
    found = []
    for combo in combinations([1 << p for p in range(n) if free >> p & 1], k - coloops.bit_count()):
        mask = coloops + sum(combo)
        for prefix, count in tests:
            if (mask & prefix).bit_count() > count:
                break
        else:
            found.append(mask)
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

    def __init__(self, n: int, k: int, bases: frozenset[Subset]) -> None:
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
    def bases(self) -> frozenset[Subset]:
        return frozenset(self.sorted_bases())

    @property
    def is_empty(self) -> bool:
        return not self.masks

    def _sorted_masks(self) -> list[int]:
        # in members' order: of two k-subsets, first the one whose bit string, element 1 first, is greater
        return sorted(self.masks, key=lambda mask: f"{mask:0{self.n}b}"[::-1], reverse=True)

    def sorted_bases(self) -> list[Subset]:
        return [_subset(self.n, mask) for mask in self._sorted_masks()]

    def __contains__(self, s: Subset) -> bool:
        return s.__class__ is Subset and s.n == self.n and s.mask in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sorted_bases())

    def __repr__(self) -> str:
        return f"BasisFamily.of({self.n}, {[list(_members(mask)) for mask in self._sorted_masks()]})"


def _check_basis(b: Subset, n: int, k: int) -> None:
    """Check b, a basis of a rank-k family: a k-subset of {1, ..., n}."""
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
    distinct = set(tokens) - {""}
    if distinct and distinct <= _TOKEN_BIT.keys():
        return max(map(_TOKEN_BIT.__getitem__, distinct)).bit_length()
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
    parts = s.split(";")
    masks = list(map(_token_mask, parts))
    # n is checked once every token is in the table, as `_read_mask` checks it
    # at the first part; otherwise the int() path reads or reports each part
    if min(masks) < 0 or _check_count(n) or max(masks) >> n:
        masks = [_read_mask(part, part, n) for part in parts]
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
