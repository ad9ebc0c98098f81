"""The cyclic and Gale orders on {1, ..., n} and the necklace step rule, one checked call at a time.

No command or sweep calls these (`families.bases_of` and the necklace minors use `core`'s mask helpers), so `positroids`
loads this module on the first read of one of its names, and a one-shot command never compiles it.
"""

from .core import ValidationError, _check_count, _check_element, _check_type, _gale_bounds, _shifted_max, _shifted_min
from .subsets import Subset, _subset


def _check_operands(n: int, *operands: tuple[int, str]) -> None:
    _check_count(n)
    for v, what in operands:
        _check_element(v, n, what)


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


def in_cyclic_interval(x: int, a: int, b: int, n: int) -> bool:
    """True when x lies strictly inside the clockwise open interval (a, b).

    Reading clockwise from a, the interval collects everything after a and
    before b.  Endpoints a and b must differ.
    """
    _check_operands(n, (x, "element"), (a, "left endpoint"), (b, "right endpoint"))
    if a == b:
        raise ValidationError("open cyclic interval needs distinct endpoints")
    return x != a and (x - a) % n < (b - a) % n


def gale_leq(a: Subset, b: Subset, t: int) -> bool:
    """Gale partial order at starting point t: componentwise <=_t comparison.

    Both subsets are sorted increasingly in the shifted order starting at t
    and compared position by position.  Only equal-size subsets of the same
    ground set are comparable.
    """
    _check_type(a, Subset)
    a._same_ground(b)
    _check_element(t, a.n, "start")
    if len(a) != len(b):
        raise ValidationError(f"Gale order compares equal-size subsets, got sizes {len(a)} and {len(b)}")
    return all((b.mask & prefix).bit_count() <= count for prefix, count in _gale_bounds(a.mask, t, a.n))


def gale_extremum(d: Subset, t: int, direction: str = "max") -> int:
    """Largest or smallest member of d in the shifted order starting at t."""
    if direction not in ("max", "min"):
        raise ValidationError(f"direction must be 'max' or 'min', got {direction!r}")
    _check_type(d, Subset)
    _check_element(t, d.n, "start")
    return (_shifted_max if direction == "max" else _shifted_min)(d.mask, t)


def necklace_step(entry: Subset, i: int, image: int) -> Subset:
    """Successor entry under the step rule when the permutation sends i to image."""
    _check_type(entry, Subset)
    i = _check_element(i, entry.n)
    image = _check_element(image, entry.n, "image")
    if i not in entry:
        return entry
    rest = entry.mask ^ 1 << (i - 1)
    if rest >> (image - 1) & 1:
        raise ValidationError(f"image {image} is already in {entry} minus {i}")
    return _subset(entry.n, rest | 1 << (image - 1))
