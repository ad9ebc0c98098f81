"""The `Subset` value type, its text form, and the necklace checks that take `Subset` entries.

`core` and `text` compute on entry masks: the conversions, the swap formulas, the text and JSON forms, the traces and
the sweep never build a `Subset`, and no command reads one.  So `positroids` loads this module on the first read of
one of its names, and `core`, `text`, `families` and `minors` import it inside the calls that build or check a
`Subset`: a `GrassmannNecklace` built from its entries or read through `entries`, a `BasisFamily` built from or read
as `Subset`s, a `SquareRow` and `MinorTrace.rows`, and subset text that leaves the table path.  `orders`, whose
checked calls take `Subset`s, imports it when it loads.  A one-shot command never compiles it.  The tables that
`format_subset` and `parse_subset` read live in `text`, beside the text forms of permutations and necklaces.
"""

from collections.abc import Iterable, Iterator, Sequence

from .core import (
    GrassmannNecklace, InvalidNecklaceError, NecklaceViolation, ValidationError, _check_count, _check_element,
    _check_iterable, _check_type, _mask_violations, _necklace, _Value,
)
from .text import _format_mask, _members, _read_mask


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


def _subset(n: int, mask: int) -> Subset:
    """Subset(n, mask) without the checks, for a mask known to fit in n."""
    s = object.__new__(Subset)
    fields = s.__dict__
    fields["n"] = n
    fields["mask"] = mask
    return s


def format_subset(s: Subset) -> str:
    _check_type(s, Subset)
    return _format_mask(s.mask)


def parse_subset(text: str, n: int) -> Subset:
    _check_type(text, str)
    return _subset(n, _read_mask(text, "".join(text.split()), n))


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


def validate_necklace(entries: Sequence[Subset]) -> GrassmannNecklace:
    """Check the step rule and wrap the entries, or raise with all violations."""
    bad = necklace_violations(entries)
    if bad:
        raise InvalidNecklaceError(bad)
    return _necklace(tuple([e.mask for e in entries]))
