"""Single-element contraction and restriction of positroids.

Both minors act directly on the decorated permutation and on the Grassmann
necklace, the latter through an entrywise swap formula: the minor entry K_a
is I_a with j and one element s_a, the swap at a, exchanged (K_a = I_a where
s_a is j).  The two routes agree: the necklace of the permutation-level
minor equals the necklace-level minor.

Contraction walks clockwise from j+1 carrying a displaced image.  Newly
created fixed points are loops (+1): contraction removes j from the ground
set's bases, so a re-routed point lands outside every basis.  Restriction is
contraction in the dual, M\\j = (M*/j)*, where the dual inverts the
permutation and negates every fixed-point color (core.dual).  The loops that
contracting the dual creates come back as coloops (-1): restriction preserves
rank, so a re-routed point must stay inside every basis.

The fixed-j rule: at a fixed point j, a loop (+1) contracted or a coloop
(-1) deleted is degenerate, with no positroid minor of the expected rank on
the same ground set, and by convention gives the identity with all fixed
points +1, flagged degenerate; at any other fixed j the minor is p with j
colored +1, a loop.

A trace (`trace_minor`) holds columns, one entry per square, the way a
necklace holds masks: the entry and minor-entry masks, the images before and
after, the swaps and the case labels.  `render_trace` and `trace_to_obj` read
the columns; the `SquareRow`s of `rows` are built from them when first read.
"""

import enum
from collections.abc import Sequence
from functools import cached_property

from .core import (
    DecoratedPermutation,
    GrassmannNecklace,
    PreconditionError,
    ValidationError,
    _Value,
    _check_element,
    _check_type,
    _format_mask,
    _members,
    _necklace,
    _perm,
    _shifted_max,
    _shifted_min,
    dual,
    format_necklace,
    format_perm,
    necklace_of,
    perm_to_obj,
)


class MinorKind(enum.Enum):
    CONTRACTION = "contraction"
    RESTRICTION = "restriction"


class CaseLabel(enum.Enum):
    """Label of one commuting square in a minor trace.

    Contraction: Case1 is the square at j itself, Case2 the untouched region
    past the preimage of j, Case3 the terminal square at that preimage, and
    Case4a/4b/4c split the walked region (new fixed point, pass-through,
    carry).  The R- labels are the mirrored restriction cases.
    """

    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    CASE4A = "Case4a"
    CASE4B = "Case4b"
    CASE4C = "Case4c"
    R_START = "R-start"
    R_PASS = "R-pass"
    R_END = "R-end"
    R_A = "R-a"
    R_B = "R-b"
    R_C = "R-c"


def _require_minor(necklace: GrassmannNecklace, j: int, contracting: bool, *positions: int) -> int:
    """j as a plain int, once the necklace minor at j is known to be defined.

    j and then each position lie in 1..n, and j is not a loop (missing from
    I_j) when contracting, nor a coloop (still in I_{j+1}) when restricting.
    """
    _check_type(necklace, GrassmannNecklace)
    n = necklace.n
    j = _check_element(j, n)
    for a in positions:
        _check_element(a, n)
    if contracting and not necklace.masks[j - 1] >> (j - 1) & 1:
        raise PreconditionError(f"{j} is a loop; the contracted necklace is undefined")
    if not contracting and necklace.masks[j % n] >> (j - 1) & 1:
        raise PreconditionError(f"{j} is a coloop; the restricted necklace is undefined")
    return j


def _swaps(necklace: GrassmannNecklace, j: int, contracting: bool) -> list[int]:
    """The swaps s_1..s_n of the minor at j, unchecked.

    Contracting, s_a is the largest element of I_a minus I_j in the shifted
    order from a, or j when j already sits in I_a; restricting, it is the
    smallest element of I_{j+1} minus I_a, or j when j is absent from I_a.
    """
    masks = necklace.masks
    bit = 1 << (j - 1)
    if contracting:
        pool = masks[j - 1]
        return [j if m & bit else _shifted_max(m & ~pool, a) for a, m in enumerate(masks, 1)]
    pool = masks[j % len(masks)]
    return [_shifted_min(pool & ~m, a) if m & bit else j for a, m in enumerate(masks, 1)]


def _minor(necklace: GrassmannNecklace, j: int, contracting: bool) -> tuple[list[int], GrassmannNecklace]:
    """The swaps of the minor at j (`_swaps`) and its entries K_a, unchecked.

    K_a is I_a with j and s_a exchanged, and equals I_a where s_a is j.
    """
    bit = 1 << (j - 1)
    swaps = _swaps(necklace, j, contracting)
    return swaps, _necklace(tuple([m if s == j else m ^ bit ^ 1 << (s - 1) for m, s in zip(necklace.masks, swaps)]))


def contraction_swap(necklace: GrassmannNecklace, j: int, a: int) -> int:
    """Element of I_a that j replaces in the contracted entry K_a.

    Equals j itself when j already sits in I_a (the entry is unchanged);
    otherwise it is the largest element of I_a minus I_j in the shifted
    order starting at a.  Requires j not a loop.
    """
    return _swaps(necklace, _require_minor(necklace, j, True, a), True)[a - 1]


def restriction_swap(necklace: GrassmannNecklace, j: int, a: int) -> int:
    """Element that replaces j in the restricted entry K_a.

    Equals j itself when j is absent from I_a (the entry is unchanged);
    otherwise it is the smallest element of I_{j+1} minus I_a in the shifted
    order starting at a.  Requires j not a coloop.
    """
    return _swaps(necklace, _require_minor(necklace, j, False, a), False)[a - 1]


def contract_necklace(necklace: GrassmannNecklace, j: int) -> GrassmannNecklace:
    """Entrywise contraction: swap j into every entry.

    The result lives on the same ground set with j present in every entry;
    dropping j from each entry gives the necklace of the contracted matroid
    on the remaining elements.  Requires j not a loop.
    """
    return _minor(necklace, _require_minor(necklace, j, True), True)[1]


def restrict_necklace(necklace: GrassmannNecklace, j: int) -> GrassmannNecklace:
    """Entrywise restriction: swap j out of every entry.

    The result lives on the same ground set with j in no entry; it is the
    necklace of the matroid with j deleted.  Requires j not a coloop.
    """
    return _minor(necklace, _require_minor(necklace, j, False), False)[1]


def _check_kind(kind: MinorKind) -> None:
    if not isinstance(kind, MinorKind):
        raise ValidationError(f"kind must be a MinorKind, got {kind!r}")


def _rebuild_colors(p: DecoratedPermutation, mu: list[int]) -> dict[int, int]:
    # p's fixed points keep their colors, the walk's new ones are loops; keys increase
    old = dict(p.colors)
    return {i: old.get(i, 1) for i, v in enumerate(mu, 1) if v == i}


def _degenerate(p: DecoratedPermutation, j: int, contracting: bool) -> bool:
    # the fixed-j rule's bad color: +1 (a loop) contracting, -1 (a coloop) restricting
    return p.images[j - 1] == j and p.color(j) == (1 if contracting else -1)


def _fixed_minor(p: DecoratedPermutation, j: int, contracting: bool) -> DecoratedPermutation:
    # the fixed-j rule: the identity with every point a loop when degenerate, else j recolored a loop
    if _degenerate(p, j, contracting):
        # inline: `DecoratedPermutation.identity` re-checks n and the color, 0.6 us more per degenerate minor
        ground = range(1, p.n + 1)
        return _perm(tuple(ground), tuple([(i, 1) for i in ground]))
    return p.with_color(j, 1)


def is_degenerate(p: DecoratedPermutation, j: int, kind: MinorKind) -> bool:
    """True when the minor falls back to the identity convention."""
    _check_kind(kind)
    _check_type(p, DecoratedPermutation)
    return _degenerate(p, _check_element(j, p.n), kind is MinorKind.CONTRACTION)


def contract(p: DecoratedPermutation, j: int) -> DecoratedPermutation:
    """Contract element j of the positroid of p.

    The result lives on the same ground set with j turned into a loop; its
    bases are the bases of p through j, with j removed.  A fixed j follows
    the fixed-j rule (module docstring).
    """
    _check_type(p, DecoratedPermutation)
    j = _check_element(j, p.n)
    images = p.images
    if images[j - 1] == j:
        return _fixed_minor(p, j, True)
    n = len(images)
    # Carry the displaced image q clockwise from j+1, swapping it into place
    # wherever the branch test fires, until q comes to rest at the preimage
    # of j.  Positions outside the walk keep their images.  The test reads
    # q <_t image(a) <_t j in the shifted order starting at t = a + 1.  The
    # preimage is one of the n - 1 positions after j, so the walk stops there
    # at the latest; images with no j are no permutation.
    mu = list(images)
    mu[j - 1] = j
    q = images[j - 1]
    t = j % n + 1
    for _ in range(n - 1):
        a = t
        pa = images[a - 1]
        if pa == j:
            break
        t = a % n + 1
        if q == a or ((q - t) % n < (pa - t) % n < (j - t) % n):
            mu[a - 1] = q
            q = pa
    else:
        raise ValidationError(f"the walk from {j} met no preimage of {j} in {n - 1} positions")
    mu[a - 1] = q
    return _perm(tuple(mu), tuple(_rebuild_colors(p, mu).items()))


def restrict(p: DecoratedPermutation, j: int) -> DecoratedPermutation:
    """Delete element j of the positroid of p.

    The result lives on the same ground set with j turned into a loop; its
    bases are the bases of p avoiding j.  A fixed j follows the fixed-j
    rule.  Otherwise deletion is contraction in the dual: the bases of p
    avoiding j are the complements of the dual's bases through j, so the
    walk runs on dual(p), and dualising back leaves j a coloop of the
    complemented family, recolored as the loop it is after deletion: the
    route is dual(contract(dual(p), j)).with_color(j, 1), its last two steps
    taken in one pass.
    """
    _check_type(p, DecoratedPermutation)
    j = _check_element(j, p.n)
    if p.images[j - 1] == j:
        return _fixed_minor(p, j, False)
    walked = contract(dual(p), j)
    images = walked.inverse()
    colors = tuple([(i, 1 if i == j else -c) for i, c in walked.colors])
    if (j, 1) not in colors:
        raise ValidationError(f"{j} is not a fixed point")
    return _perm(images, colors)


class MinorResult(_Value):
    __match_args__ = ("perm", "degenerate")

    def __init__(self, perm: DecoratedPermutation, degenerate: bool) -> None:
        self.__dict__.update(perm=perm, degenerate=degenerate)


def apply_minor(p: DecoratedPermutation, j: int, kind: MinorKind) -> MinorResult:
    """Contract or restrict, reporting whether the convention fallback fired."""
    _check_kind(kind)
    op = contract if kind is MinorKind.CONTRACTION else restrict
    return MinorResult(op(p, j), is_degenerate(p, j, kind))


def _case(images: tuple[int, ...], swaps: list[int], j: int, inv_j: int, a: int, contracting: bool) -> CaseLabel:
    """Label of the square at a, unchecked: j is not fixed, inv_j is its preimage.

    (x - t) % n is the place of x in the shifted order starting at t.
    """
    n = len(images)
    if a == j:
        return CaseLabel.CASE1 if contracting else CaseLabel.R_START
    if a == inv_j:
        return CaseLabel.CASE3 if contracting else CaseLabel.R_END
    if contracting:
        if (a - inv_j) % n < (j - inv_j) % n:
            return CaseLabel.CASE2
        t = a % n + 1
        if (j - t) % n < (swaps[a - 1] - t) % n:
            return CaseLabel.CASE4A
        if (j - t) % n < (images[a - 1] - t) % n:
            return CaseLabel.CASE4B
        return CaseLabel.CASE4C
    if (a - j) % n < (inv_j - j) % n:
        return CaseLabel.R_PASS
    if swaps[a % n] == a:
        return CaseLabel.R_A
    if (images[a - 1] - a) % n < (j - a) % n:
        return CaseLabel.R_B
    return CaseLabel.R_C


def classify_square(
    p: DecoratedPermutation,
    necklace: GrassmannNecklace,
    j: int,
    a: int,
    kind: MinorKind = MinorKind.CONTRACTION,
) -> CaseLabel:
    """Label the commuting square at position a of the minor trace at j.

    The necklace must be necklace_of(p); any other is rejected.  Requires j
    not fixed (fixed j has no walk to classify).
    """
    _check_kind(kind)
    _check_type(p, DecoratedPermutation)
    _check_type(necklace, GrassmannNecklace)
    j = _check_element(j, p.n)
    _check_element(a, p.n)
    if p.images[j - 1] == j:
        raise PreconditionError(f"{j} is a fixed point; there is no walk to classify")
    if necklace.n != p.n:
        raise ValidationError(f"the necklace has {necklace.n} entries, expected {p.n}")
    if necklace.masks != necklace_of(p).masks:
        raise ValidationError(f"the necklace {format_necklace(necklace)} is not the necklace of {format_perm(p)}")
    contracting = kind is MinorKind.CONTRACTION
    swaps = _swaps(necklace, j, contracting)
    return _case(p.images, swaps, j, p.images.index(j) + 1, a, contracting)


class SquareRow(_Value):
    """One square of a minor trace, between positions a and a+1: a column of its diagram.

    The constructor checks that the entries are Subsets of one ground set,
    that a, the images and the swap are its elements and that the case is a
    CaseLabel.
    """

    __match_args__ = ("a", "entry", "minor_entry", "image", "minor_image", "swap", "case")

    def __init__(self, a: int, entry: "Subset", minor_entry: "Subset", image: int, minor_image: int, swap: int,
                 case: CaseLabel) -> None:
        from .subsets import Subset

        _check_type(entry, Subset)
        entry._same_ground(minor_entry)
        n = entry.n
        a, image, minor_image, swap = [
            _check_element(i, n, what)
            for i, what in ((a, "position"), (image, "image"), (minor_image, "minor image"), (swap, "swap"))
        ]
        _check_type(case, CaseLabel)
        self.__dict__.update(a=a, entry=entry, minor_entry=minor_entry, image=image, minor_image=minor_image,
                             swap=swap, case=case)


class MinorTrace(_Value):
    """Square-by-square account of a minor at j, held as columns: one tuple per field, one entry per square.

    Entry a - 1 of each column describes the square at a: `masks` and
    `minor_masks` hold the masks of I_a and K_a, `images` and `minor_images`
    the images of a before and after, `swaps` the element bridging I_a to
    K_a and `cases` its CaseLabel.  `rows`, one SquareRow per square, is
    built from the columns on first access and kept; equality, hashing and
    the repr read it.  The constructor takes the rows and reads the columns
    off them, once it has checked the kind, the two permutations, j and that
    the rows are the n squares of the source's ground set, in order.
    """

    __match_args__ = ("kind", "j", "source", "result", "rows")

    def __init__(self, kind: MinorKind, j: int, source: DecoratedPermutation, result: DecoratedPermutation,
                 rows: Sequence[SquareRow]) -> None:
        _check_kind(kind)
        _check_type(source, DecoratedPermutation)
        _check_type(result, DecoratedPermutation)
        n = source.n
        j = _check_element(j, n, "j")
        if not isinstance(rows, Sequence) or len(rows) != n:
            got = f"a sequence of {len(rows)}" if isinstance(rows, Sequence) else type(rows).__name__
            raise ValidationError(f"rows must be a sequence of {n} SquareRows, got {got}")
        for a, row in enumerate(rows, 1):
            _check_type(row, SquareRow)
            if row.a != a or row.entry.n != n:
                raise ValidationError(f"row {a} is the square at {row.a} on n={row.entry.n}, expected {a} on n={n}")
        columns = zip(*[(r.entry.mask, r.minor_entry.mask, r.image, r.minor_image, r.swap, r.case) for r in rows])
        self.__dict__.update(vars(_trace(kind, j, source, result, *columns)))

    @cached_property
    def rows(self) -> tuple[SquareRow, ...]:
        from .subsets import _subset

        n = len(self.images)
        entries = [_subset(n, mask) for mask in self.masks]
        minor_entries = [_subset(n, mask) for mask in self.minor_masks]
        return tuple(map(SquareRow, range(1, n + 1), entries, minor_entries, self.images, self.minor_images,
                         self.swaps, self.cases))


def _trace(kind: MinorKind, j: int, source: DecoratedPermutation, result: DecoratedPermutation,
           masks: tuple[int, ...], minor_masks: tuple[int, ...], images: tuple[int, ...],
           minor_images: tuple[int, ...], swaps: tuple[int, ...], cases: tuple[CaseLabel, ...]) -> MinorTrace:
    """A MinorTrace with these columns, without the checks, for columns known valid."""
    trace = object.__new__(MinorTrace)
    trace.__dict__.update(kind=kind, j=j, source=source, result=result, masks=masks, minor_masks=minor_masks,
                          images=images, minor_images=minor_images, swaps=swaps, cases=cases)
    return trace


def trace_minor(p: DecoratedPermutation, j: int, kind: MinorKind) -> MinorTrace:
    """Full square-by-square account of a minor at a non-fixed j.

    Square a records the original entry I_a and image, the minor entry K_a
    and image, the swapped element bridging I_a to K_a, and the case label.
    The minor images reproduce contract(p, j) or restrict(p, j) exactly, and
    consecutive entries satisfy the necklace step rule.
    """
    _check_kind(kind)
    _check_type(p, DecoratedPermutation)
    j = _check_element(j, p.n)
    if p.images[j - 1] == j:
        raise PreconditionError(f"{j} is a fixed point; there is no walk to trace")
    contracting = kind is MinorKind.CONTRACTION
    necklace = necklace_of(p)
    swaps, minor_necklace = _minor(necklace, j, contracting)
    result = (contract if contracting else restrict)(p, j)
    images = p.images
    inv_j = images.index(j) + 1
    cases = tuple([_case(images, swaps, j, inv_j, a, contracting) for a in range(1, p.n + 1)])
    return _trace(kind, j, p, result, necklace.masks, minor_necklace.masks, images, result.images, tuple(swaps),
                  cases)


def _cells(masks: Sequence[int], n: int) -> list[str]:
    """The diagram cells of entry masks on n elements: comma-joined members, or {} when empty.

    Below 10 every element is one digit, so the cells drop the commas.
    """
    cells = [_format_mask(mask) or "{}" for mask in masks]
    return [cell.replace(",", "") for cell in cells] if n <= 9 else cells


def render_trace(trace: MinorTrace) -> str:
    """Plain-text diagram of a trace.

    Four rows: original entries with their images on the arrows, the swapped
    elements, minor entries with minor images on the arrows, case labels.
    The final arrow wraps around to the first column.  Each column is
    centred in the width of its widest cell, each arrow in that of its wider
    arrow.
    """
    _check_type(trace, MinorTrace)
    n = len(trace.images)
    tops = _cells(trace.masks, n)
    bots = _cells(trace.minor_masks, n)
    swaps = list(map(str, trace.swaps))
    cases = [case.value for case in trace.cases]
    top_arrows = [f"-{v}->" for v in trace.images]
    bot_arrows = [f"-{v}->" for v in trace.minor_images]
    widths = list(map(max, map(len, tops), map(len, bots), map(len, swaps), map(len, cases)))
    arrows = list(map(max, map(len, top_arrows), map(len, bot_arrows)))
    blank = [""] * n

    def line(cells: list[str], arrow_cells: list[str]) -> str:
        pairs = zip(cells, widths, arrow_cells, arrows)
        return " ".join([f"{cell.center(w)} {arrow.center(v)}" for cell, w, arrow, v in pairs]).rstrip()

    header = (
        f"{trace.kind.value} at j={trace.j}: "
        f"{format_perm(trace.source)} => {format_perm(trace.result)}"
    )
    return "\n".join([header, line(tops, top_arrows), line(swaps, blank), line(bots, bot_arrows), line(cases, blank)])


def trace_to_obj(trace: MinorTrace) -> dict:
    _check_type(trace, MinorTrace)
    columns = (trace.masks, trace.minor_masks, trace.images, trace.minor_images, trace.swaps, trace.cases)
    return {
        "kind": trace.kind.value,
        "j": trace.j,
        "source": perm_to_obj(trace.source),
        "result": perm_to_obj(trace.result),
        "rows": [
            {
                "a": a,
                "entry": list(_members(mask)),
                "minor_entry": list(_members(minor_mask)),
                "image": image,
                "minor_image": minor_image,
                "swap": swap,
                "case": case.value,
            }
            for a, (mask, minor_mask, image, minor_image, swap, case) in enumerate(zip(*columns), 1)
        ],
    }
