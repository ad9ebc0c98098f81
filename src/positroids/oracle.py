"""Brute-force ground truth for minors, plus the exhaustive verifier.

Everything here works on explicit basis families by set and bit arithmetic,
with no reliance on the walk algorithms or the necklace swap formulas, so
it serves as an independent check of both.  Sizes are desk-scale:
enumeration walks all n! * 2^(fixed points) decorated permutations, so n
is capped.

The public functions take and return `families.BasisFamily` values at any n
and read their `masks`, building no `Subset`.  Inside
the sweep a family is a bit vector of 2^n bits instead, one int whose bit m
is set when the subset with mask m is a basis, so that minors, Gale minima
and family equality are a few big-int operations each; the set-based public
functions are the reference the bit helpers are tested against.  Each sweep
builds the Schubert cells of every mask from every start once, n * 2^n bit
vectors; by Oh's theorem a necklace's family is the AND of its entries' cells.

Many instances of a sweep give the same minor permutation, or keep the same
bases through or avoiding j, so each sweep (`_Sweep`) keeps two tables: a
minor's necklace masks and family bits, with its colour flip's masks and loop
verdict at each j met, and a kept family's Gale minima with whether they cut
that family out, which is the closure verdict for either kind.
`_verify_instance` says why neither table can change the report.  A table is
emptied at `SWEEP_TABLE_CAP` entries and dropped when its sweep returns, so
each worker of a parallel sweep has its own.

Recognition (`oracle_necklace`, `is_positroid`, `check_matroid`) needs no
minor or sweep, so `families` defines it; `oracle.is_positroid` and the other
two are the same objects, imported from there.
"""

import os
import time
from functools import partial, reduce
from itertools import permutations, product
from operator import and_

from .core import (
    DecoratedPermutation,
    ValidationError,
    _Value,
    _check_count,
    _check_element,
    _check_type,
    _perm,
    format_perm,
    loop_coloop_status,
    necklace_of,
    perm_of,
)
# the recognition names are not used here; they are imported so that `oracle` still names them
from .families import BasisFamily, _family, check_matroid, is_positroid, oracle_necklace
from .minors import (
    MinorKind,
    _degenerate,
    contract,
    contract_necklace,
    restrict,
    restrict_necklace,
)

ENUMERATION_CAP = 10

# Entries one table of a sweep holds before it is emptied (`_Sweep`); every
# table of n <= 6 fits.  A sweep worker's memory budget is 40 MiB, which CI's
# n = 8 step and the weekly n = 9 gate assert.  At n = 8 a serial sweep took
# 32.1 s at a 26.5 MiB peak with this cap and 25.3 s at 116.1 MiB with none;
# of two workers, each peaked at 24.6 MiB with this cap and at 35.5 MiB with
# 2^14 (Python 3.11, x86-64).  A full table is emptied: evicting its older
# half took as long and peaked 1.4 MiB higher.
SWEEP_TABLE_CAP = 1 << 13

BOTH_KINDS = frozenset({MinorKind.CONTRACTION, MinorKind.RESTRICTION})


def oracle_contract(family: BasisFamily, j: int) -> BasisFamily:
    """Bases through j, with j removed from each.

    Empty when j is a loop; the sentinel empty family is returned rather
    than raising, since callers probing arbitrary j expect it.
    """
    _check_type(family, BasisFamily)
    n = family.n
    _check_element(j, n)
    bit = 1 << (j - 1)
    return _family(n, max(family.k - 1, 0), frozenset([mask ^ bit for mask in family.masks if mask & bit]))


def oracle_delete(family: BasisFamily, j: int) -> BasisFamily:
    """Bases avoiding j.  Empty (sentinel) when j is a coloop."""
    _check_type(family, BasisFamily)
    _check_element(j, family.n)
    bit = 1 << (j - 1)
    return _family(family.n, family.k, frozenset([mask for mask in family.masks if not mask & bit]))


def _check_enumerable(n):
    _check_count(n)
    if n > ENUMERATION_CAP:
        raise ValidationError(f"n={n} exceeds the enumeration cap of {ENUMERATION_CAP}")


def enumerate_decorated_perms(n: int):
    """All decorated permutations of {1..n}, lex by images then colors; n is checked at the call."""
    _check_enumerable(n)
    return (_perm(images, tuple(zip(fixed, signs)))
            for images in permutations(range(1, n + 1))
            for fixed in [[i for i, v in enumerate(images, 1) if v == i]]
            for signs in product((-1, 1), repeat=len(fixed)))


class VerificationReport(_Value):
    __match_args__ = ("n", "kind", "instances_checked", "degenerate_skipped", "mismatches", "check_failures",
                      "first_failure", "elapsed")

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, n: int, kind: str, instances_checked: int, degenerate_skipped: int, mismatches: int,
                 check_failures: dict[str, int], first_failure: str | None, elapsed: float) -> None:
        self.__dict__.update(n=n, kind=kind, instances_checked=instances_checked,
                             degenerate_skipped=degenerate_skipped, mismatches=mismatches,
                             check_failures=check_failures, first_failure=first_failure, elapsed=elapsed)

    def summary(self) -> str:
        status = "ok" if self.mismatches == 0 else f"FAIL, {self.mismatches} mismatches"
        return (
            f"n={self.n} kind={self.kind}: {self.instances_checked} instances checked, "
            f"{self.degenerate_skipped} degenerate skipped, {status}, {self.elapsed:.2f}s"
        )

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__} | {"check_failures": dict(self.check_failures)}


def _check_squares(p, necklace, minor_necklace, result, j, kind):
    """Square commutation along the whole trace.

    Each square must satisfy the step rule, and exactly one of its two
    commuting patterns: the carried swap descends (top image equals the next
    swap, bottom image equals this one, sides flipped for restriction), or
    the square is inert (images equal, swaps equal).  The swap at a is read
    off I_a and K_a: the element other than j that they do not share, or j
    itself where they are equal.
    """
    failures = []
    images, result_images = p.images, result.images
    n = len(images)
    minor = minor_necklace.masks
    for a in range(1, n + 1):
        # the step rule from K_a under the minor's image of a
        mask = minor[a - 1]
        bit = 1 << (a - 1)
        if mask & bit:
            mask = mask ^ bit | 1 << (result_images[a - 1] - 1)
        if mask != minor[a % n]:
            failures.append("commutation")
            break
    contracting = kind is MinorKind.CONTRACTION
    not_j = ~(1 << (j - 1))
    swaps = [((e ^ m) & not_j).bit_length() or j for e, m in zip(necklace.masks, minor)]
    for a in range(1, n + 1):
        here = swaps[a - 1]
        there = swaps[a % n]  # the swap at a + 1
        top, bottom = (there, here) if contracting else (here, there)
        image, minor_image = images[a - 1], result_images[a - 1]
        carried = image == top and minor_image == bottom
        inert = minor_image == image and here == there
        if carried == inert:
            failures.append("square-pattern")
            break
    return failures


def _element_planes(n):
    """P_1..P_n on bit vectors of 2^n bits: bit m of P_e is set when m holds e."""
    size = 1 << n
    planes = []
    for e in range(n):
        half = 1 << e
        # one period of 2 * half bits, its upper half set, repeated to 2^n bits
        period = ((1 << half) - 1) << half
        planes.append(period * (((1 << size) - 1) // ((1 << 2 * half) - 1)))
    return tuple(planes)


def _contract_bits(bits, planes, j):
    """oracle_contract on bit vectors: the bases through j, with j removed."""
    return (bits & planes[j - 1]) >> (1 << (j - 1))


def _delete_bits(bits, planes, j):
    """oracle_delete on bit vectors: the bases avoiding j."""
    return bits & ~planes[j - 1]


def _gale_minima(bits, planes):
    """oracle_necklace on bit vectors: the entry masks, or None when empty.

    For each start t the elements are taken in the shifted order from t, and
    the bases holding e are kept whenever there are any.  The survivors then
    agree on every element, so exactly one is left; among sets of equal size
    it is the lexicographic, hence the Gale, minimum.
    """
    if not bits:
        return None
    n = len(planes)
    twice = planes * 2
    minima = []
    for t in range(n):
        cand = bits
        for plane in twice[t:t + n]:
            hit = cand & plane
            if hit:
                cand = hit
        minima.append(cand.bit_length() - 1)
    return tuple(minima)


def _verify_instance(p, necklace, family, j, kind, sweep):
    """Run every oracle comparison for one (perm, j, kind) instance.

    Returns (degenerate, failure tags).  Degenerate instances only assert
    the identity convention; everything else is checked against the brute
    force route and the structural expectations (j becomes a loop, rank
    drops by one under contraction and holds under restriction).  `family`
    is p's basis family as a bit vector and `sweep` the sweep's `_Sweep`.
    The per-kind routines and the bit helpers are looked up when called, so
    a patched module binding is the one checked.

    Two results come from the sweep's tables, each read with one `get` and
    filled on a miss by `_Sweep`.  `sweep.minors` is keyed by the minor
    permutation, images and colours, and gives its necklace's masks and
    their family bits for the "oracle", "necklace-agreement" and "structure"
    checks, and two rows filled here at each j met: the colour-flipped
    necklace's masks for "color-flip" and the loop verdict for "structure".
    Only a key that passed the permutation guard is stored, so a hit skips
    it.  `sweep.kept` is keyed by the kept family's bit vector and gives
    its Gale minima, None when it is empty, for "necklace-formula", and
    whether those minima cut the kept family out, for "closure".  Each table
    holds at most `SWEEP_TABLE_CAP` entries.  The calls they stand for are
    pure and depend on the key and j alone, and a call that raises stores
    nothing, so every check sees the inputs, and every instance the
    exceptions in the same order, that it would with no table, and the
    report cannot change.

    Closure asks whether the oracle family is cut out by its Gale minima,
    and the kept family answers for both kinds.  Restricting, the two are
    one family.  Contracting, every kept basis holds j, so every kept
    minimum M_t does, and the contracted family is cut out by the M_t less j
    exactly when the kept one is cut out by the M_t: from start j + 1, j
    comes last, so every set above M_t there holds j; from start j, j comes
    first, so no set above M_t less j there holds j; and dropping j from two
    sets that hold it lowers both prefix counts by one, so no Gale
    comparison changes.
    """
    failures = []
    k = necklace.k
    contracting = kind is MinorKind.CONTRACTION
    result = (contract if contracting else restrict)(p, j)
    key = (result.images, result.colors)
    entry = sweep.minors.get(key)
    # the walks build their results unchecked: images that are not a
    # permutation go through the checking constructor, which raises; a
    # stored key has passed this already
    if entry is None and frozenset(result.images) != sweep.ground:
        DecoratedPermutation(result.images, result.colors)
    if _degenerate(p, j, contracting):
        if result != sweep.identity:
            failures.append("convention")
        return True, failures
    # the bases through j when contracting, avoiding j when restricting;
    # avoiding j they are the oracle's deletion itself
    planes = sweep.planes
    bit = 1 << (j - 1)
    if contracting:
        oracle_family = _contract_bits(family, planes, j)
        kept = family & planes[j - 1]
    else:
        oracle_family = kept = _delete_bits(family, planes, j)
    result_masks, result_family, flips, loops = entry or sweep.add_minor(key, result)
    if result_family != oracle_family:
        failures.append("oracle")
    minor_necklace = (contract_necklace if contracting else restrict_necklace)(necklace, j)
    kept_minima, closed = sweep.kept.get(kept) or sweep.add_kept(kept)
    if kept_minima != minor_necklace.masks:
        failures.append("necklace-formula")
    # contraction's entries carry j, which the loop j of the result lacks;
    # restriction's must already be free of j, so they are compared as is
    agreed = tuple([m & ~bit for m in minor_necklace.masks]) if contracting else minor_necklace.masks
    if result_masks != agreed:
        failures.append("necklace-agreement")
    if contracting:
        flip = flips[j - 1]
        if flip is None:
            flip = flips[j - 1] = necklace_of(result.with_color(j, -1)).masks
        if flip != minor_necklace.masks:
            failures.append("color-flip")
    if p.images[j - 1] == j:
        # a non-degenerate fixed j becomes a loop (a restricted one already is)
        if result != p.with_color(j, 1):
            failures.append("convention")
    else:
        failures.extend(_check_squares(p, necklace, minor_necklace, result, j, kind))
    if not closed:
        failures.append("closure")
    is_loop = loops[j - 1]
    if is_loop is None:
        is_loop = loops[j - 1] = loop_coloop_status(result, j) == "loop"
    if not is_loop or result_masks[0].bit_count() != (k - 1 if contracting else k):
        failures.append("structure")
    return False, failures


def _schubert_cells(n):
    """uppers[t][m]: the masks of |m| members Gale-above m from t + 1, as bits.

    Read from t + 1, m is s: bit i of s is element t + 1 + i (mod n).  Above
    s lie s and all above its covers s + 2^i (member i moved up to a free
    i + 1 < n); covers are larger, so their cells are made first.
    """
    full = (1 << n) - 1
    uppers = []
    for t in range(n):
        cells, row = [0] * (full + 1), [0] * (full + 1)
        for s in range(full, -1, -1):
            m = (s << t | s >> (n - t)) & full
            cell = 1 << m
            for i in range(n - 1):
                if s >> i & 3 == 1:
                    cell |= cells[s + (1 << i)]
            cells[s] = row[m] = cell
        uppers.append(row)
    return uppers


def _family_bits(uppers, masks):
    """bases_of, as bits, of these entry masks: the AND of the entries' cells.

    A basis is Gale-above every entry from its start, so it is in each cell.
    """
    return reduce(and_, [row[mask] for row, mask in zip(uppers, masks)])


class _Sweep:
    """What one sweep of size n builds once and reads for every instance.

    `uppers` are the Schubert cells of `_family_bits`, `planes` the element
    planes, `ground` the set {1..n} and `identity` the degenerate
    convention's all-loop permutation.  `minors` and `kept` are the tables
    that `_verify_instance` reads, and `add_minor` and `add_kept` fill them
    on a miss, calling `necklace_of`, `_family_bits` and `_gale_minima`
    through their module bindings, so a fault planted there is still seen.
    """

    def __init__(self, n):
        self.uppers = _schubert_cells(n)
        self.planes = _element_planes(n)
        self.ground = frozenset(range(1, n + 1))
        self.identity = DecoratedPermutation.identity(n, 1)
        self.minors = {}
        self.kept = {}

    def add_minor(self, key, result):
        """Store and return, under key, necklace_of(result)'s masks, their family bits and two empty per-j rows."""
        masks = necklace_of(result).masks
        row = [None] * len(self.ground)
        return _keep(self.minors, key, (masks, _family_bits(self.uppers, masks), row, row[:]))

    def add_kept(self, kept):
        """Store and return, under kept, its Gale minima (None when empty) and whether they cut it out."""
        minima = _gale_minima(kept, self.planes)
        closed = minima is not None and _family_bits(self.uppers, minima) == kept
        return _keep(self.kept, kept, (minima, closed))


def _keep(table, key, value):
    """Store value under key, emptying a full table first; returns value."""
    if len(table) >= SWEEP_TABLE_CAP:
        table.clear()
    table[key] = value
    return value


def _sweep(n, kinds, stride, offset):
    """One worker's share of the sweep: perms whose index hits the offset, each kind in the order given."""
    instances = degenerate = mismatches = 0
    check_failures: dict[str, int] = {}
    first_key = first_msg = None

    def record(key, msg, tags):
        nonlocal mismatches, first_key, first_msg
        mismatches += 1
        for tag in tags:
            check_failures[tag] = check_failures.get(tag, 0) + 1
        if first_key is None or key < first_key:
            first_key, first_msg = key, msg
    sweep = _Sweep(n)
    uppers, planes = sweep.uppers, sweep.planes
    for idx, p in enumerate(enumerate_decorated_perms(n)):
        if idx % stride != offset:
            continue
        try:
            necklace = necklace_of(p)
            if perm_of(necklace) != p:
                record((idx, 0, ""), f"n={n} perm={format_perm(p)}: round-trip", ["round-trip"])
            family = _family_bits(uppers, necklace.masks)
            if _gale_minima(family, planes) != necklace.masks:
                record((idx, 0, ""), f"n={n} perm={format_perm(p)}: min-recovery", ["min-recovery"])
        except Exception as err:
            # with no necklace or family there is nothing to check the minors against
            record((idx, 0, ""), f"n={n} perm={format_perm(p)}: raised {type(err).__name__}: {err}", ["raised"])
            continue
        for j in range(1, n + 1):
            for kind in kinds:
                try:
                    skipped, fails = _verify_instance(p, necklace, family, j, kind, sweep)
                    shown = fails
                except Exception as err:
                    # an invalid value built by a routine under test, or its crash, fails the instance, not the sweep
                    skipped, fails, shown = False, ["raised"], [f"raised {type(err).__name__}: {err}"]
                if skipped:
                    degenerate += 1
                else:
                    instances += 1
                if fails:
                    where = f"n={n} perm={format_perm(p)} j={j} kind={kind.value}"
                    record((idx, j, kind.value), f"{where}: {', '.join(shown)}", fails)
    return dict(
        instances=instances, degenerate=degenerate, mismatches=mismatches,
        check_failures=check_failures, first_key=first_key, first_msg=first_msg,
    )


def verify_all(n: int, kinds=BOTH_KINDS, jobs: int = 1) -> VerificationReport:
    """Exhaustively compare both minor routes against the oracle for size n.

    Sweeps every decorated permutation of {1..n} and every j, checking the
    permutation walk and the necklace swap formula against brute-force set
    arithmetic, plus round trips, square commutation, positroid closure, and
    the degenerate conventions.  An exception raised while checking an
    instance, a `PositroidError` or a crash such as an `IndexError`, fails
    that instance under the tag `raised` with its class name and message, and
    the sweep goes on; one raised by a permutation's own checks (necklace,
    round trip, family) fails that permutation the same way and skips its
    instances.

    jobs > 1 splits the sweep across processes; results are merged
    deterministically.  Every argument is checked before any work starts.
    """
    _check_enumerable(n)
    try:
        kinds = frozenset(kinds)
    except TypeError:  # not iterable, or an unhashable member, which is no kind either
        kinds = None
    if not kinds or not kinds <= BOTH_KINDS:
        raise ValidationError("kinds must be a nonempty subset of {contraction, restriction}")
    _check_count(jobs, "jobs", None)
    ordered = sorted(kinds, key=lambda kk: kk.value)
    start = time.perf_counter()
    if jobs == 1:
        parts = [_sweep(n, ordered, 1, 0)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # jobs stays the stride, so the partition and the merged report do
        # not depend on how many workers actually run it
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(partial(_sweep, n, ordered, jobs), range(jobs)))
    elapsed = time.perf_counter() - start
    check_failures: dict[str, int] = {}
    for part in parts:
        for tag, cnt in part["check_failures"].items():
            check_failures[tag] = check_failures.get(tag, 0) + cnt
    firsts = [(part["first_key"], part["first_msg"]) for part in parts if part["first_key"] is not None]
    first_msg = min(firsts)[1] if firsts else None
    return VerificationReport(
        n=n,
        kind="both" if len(ordered) == 2 else ordered[0].value,
        instances_checked=sum(part["instances"] for part in parts),
        degenerate_skipped=sum(part["degenerate"] for part in parts),
        mismatches=sum(part["mismatches"] for part in parts),
        check_failures=check_failures,
        first_failure=first_msg,
        elapsed=elapsed,
    )
