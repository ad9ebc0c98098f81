"""Brute-force ground truth for minors, plus the exhaustive verifier.

Everything here works on explicit basis families by set arithmetic, with no
reliance on the walk algorithms or the necklace swap formulas, so it serves
as an independent check of both.  Sizes are desk-scale: enumeration walks
all n! * 2^(fixed points) decorated permutations, so n is capped.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product

from .core import (
    BasisFamily,
    DecoratedPermutation,
    GrassmannNecklace,
    PreconditionError,
    Subset,
    ValidationError,
    _check_element,
    _check_n,
    _family,
    _gale_keyer,
    _necklace,
    _perm,
    _subset,
    bases_of,
    format_perm,
    loop_coloop_status,
    necklace_of,
    perm_of,
)
from .minors import (
    MinorKind,
    contract,
    contract_necklace,
    contraction_swap,
    is_degenerate,
    restrict,
    restrict_necklace,
    restriction_swap,
)

ENUMERATION_CAP = 10

# Families the per-sweep bases memo holds before it starts over: every
# necklace of n = 7 fits (13,700 decorated permutations), at under 200 bytes
# a family (1,957 families of n = 6 take 0.3 MB).
BASES_MEMO_CAP = 1 << 14

BOTH_KINDS = frozenset({MinorKind.CONTRACTION, MinorKind.RESTRICTION})


def oracle_contract(family: BasisFamily, j: int) -> BasisFamily:
    """Bases through j, with j removed from each.

    Empty when j is a loop; the sentinel empty family is returned rather
    than raising, since callers probing arbitrary j expect it.
    """
    n = family.n
    _check_element(j, n)
    bit = 1 << (j - 1)
    kept = frozenset(_subset(n, h.mask ^ bit) for h in family.bases if h.mask & bit)
    k = max(family.k - 1, 0)
    if not kept:
        return BasisFamily.empty(family.n, k)
    return _family(family.n, k, kept)


def oracle_delete(family: BasisFamily, j: int) -> BasisFamily:
    """Bases avoiding j.  Empty (sentinel) when j is a coloop."""
    _check_element(j, family.n)
    bit = 1 << (j - 1)
    kept = frozenset(h for h in family.bases if not h.mask & bit)
    if not kept:
        return BasisFamily.empty(family.n, family.k)
    return _family(family.n, family.k, kept)


def oracle_necklace(family: BasisFamily) -> GrassmannNecklace:
    """Entrywise Gale minimum of the family, one entry per starting point.

    The minima of a matroid's bases form its Grassmann necklace; for a family
    that is not a matroid they need not, and come back unchecked all the same.
    """
    if family.is_empty:
        raise PreconditionError("the empty family has no necklace")
    n = family.n
    gale_key = _gale_keyer(n)
    masks = [h.mask for h in family.bases]
    # a Gale key determines its subset, so the minimum is unique
    return _necklace(tuple(_subset(n, min(masks, key=partial(gale_key, n, t))) for t in range(1, n + 1)))


def is_positroid(family: BasisFamily) -> bool:
    """Whether the family is exactly cut out by its own Gale minima."""
    return _is_positroid(family, bases_of)


def _is_positroid(family, bases):
    """is_positroid with the necklace-to-bases function passed in."""
    if family.is_empty:
        raise PreconditionError("the empty family is not classified")
    return bases(oracle_necklace(family)).bases == family.bases


def check_matroid(family: BasisFamily) -> bool:
    """Basis exchange: for bases A, B and x in A-B some y in B-A fixes A-x+y."""
    if family.is_empty:
        raise PreconditionError("the empty family is not classified")
    masks = frozenset(h.mask for h in family.bases)
    for a in masks:
        for b in masks:
            need = a & ~b
            while need:
                xbit = need & -need
                need ^= xbit
                stripped = a ^ xbit
                free = b & ~a
                found = False
                while free:
                    ybit = free & -free
                    free ^= ybit
                    if stripped | ybit in masks:
                        found = True
                        break
                if not found:
                    return False
    return True


def enumerate_decorated_perms(n: int, cap: int = ENUMERATION_CAP):
    """All decorated permutations of {1..n}, lex by images then colors."""
    _check_n(n)
    if n > cap:
        raise ValidationError(f"n={n} exceeds the enumeration cap of {cap}")
    for images in permutations(range(1, n + 1)):
        fixed = [i for i in range(1, n + 1) if images[i - 1] == i]
        for signs in product((-1, 1), repeat=len(fixed)):
            yield _perm(images, tuple(zip(fixed, signs)))


@dataclass
class VerificationReport:
    n: int
    kind: str
    instances_checked: int
    degenerate_skipped: int
    mismatches: int
    check_failures: dict[str, int]
    first_failure: str | None
    elapsed: float

    def summary(self) -> str:
        status = "ok" if self.mismatches == 0 else f"FAIL, {self.mismatches} mismatches"
        return (
            f"n={self.n} kind={self.kind}: {self.instances_checked} instances checked, "
            f"{self.degenerate_skipped} degenerate skipped, {status}, {self.elapsed:.2f}s"
        )

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "instances_checked": self.instances_checked,
            "degenerate_skipped": self.degenerate_skipped,
            "mismatches": self.mismatches,
            "check_failures": dict(self.check_failures),
            "first_failure": self.first_failure,
            "elapsed": self.elapsed,
        }


def _check_squares(p, necklace, minor_necklace, result, j, kind):
    """Square commutation along the whole trace.

    Each square must satisfy the step rule, and exactly one of its two
    commuting patterns: the carried swap descends (top image equals the next
    swap, bottom image equals this one, sides flipped for restriction), or
    the square is inert (images equal, swaps equal).
    """
    failures = []
    images, result_images = p.images, result.images
    n = len(images)
    entries = minor_necklace.entries
    for a in range(1, n + 1):
        # the step rule from K_a under the minor's image of a
        mask = entries[a - 1].mask
        bit = 1 << (a - 1)
        if mask & bit:
            mask = mask ^ bit | 1 << (result_images[a - 1] - 1)
        if mask != entries[a % n].mask:
            failures.append("commutation")
            break
    contracting = kind is MinorKind.CONTRACTION
    swap = contraction_swap if contracting else restriction_swap
    swaps = [swap(necklace, j, a) for a in range(1, n + 1)]
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


def _verify_instance(p, necklace, family, j, kind, bases):
    """Run every oracle comparison for one (perm, j, kind) instance.

    Returns (degenerate, failure tags).  Degenerate instances only assert
    the identity convention; everything else is checked against the brute
    force route and the structural expectations (j becomes a loop, rank
    drops by one under contraction and holds under restriction).  `bases`
    is the sweep's bases_of memo.  The per-kind routines are looked up when
    called, so a patched module binding is the one checked.
    """
    failures = []
    n, k = family.n, family.k
    contracting = kind is MinorKind.CONTRACTION
    result = (contract if contracting else restrict)(p, j)
    if is_degenerate(p, j, kind):
        if result != DecoratedPermutation.identity(n, 1):
            failures.append("convention")
        return True, failures
    oracle_family = (oracle_contract if contracting else oracle_delete)(family, j)
    result_necklace = necklace_of(result)
    if bases(result_necklace).bases != oracle_family.bases:
        failures.append("oracle")
    minor_necklace = (contract_necklace if contracting else restrict_necklace)(necklace, j)
    # the bases through j when contracting, avoiding j when restricting
    bit = 1 << (j - 1)
    kept = _family(n, k, frozenset(h for h in family.bases if bool(h.mask & bit) is contracting))
    if oracle_necklace(kept) != minor_necklace:
        failures.append("necklace-formula")
    # contraction's entries carry j, which the loop j of the result lacks;
    # restriction's must already be free of j, so they are compared as is
    agreed = minor_necklace
    if contracting:
        agreed = _necklace(tuple(_subset(n, e.mask & ~bit) for e in minor_necklace.entries))
    if result_necklace != agreed:
        failures.append("necklace-agreement")
    if contracting and necklace_of(result.with_color(j, -1)) != minor_necklace:
        failures.append("color-flip")
    if p.images[j - 1] == j:
        # a non-degenerate fixed j becomes a loop (a restricted one already is)
        if result != p.with_color(j, 1):
            failures.append("convention")
    else:
        failures.extend(_check_squares(p, necklace, minor_necklace, result, j, kind))
    if not _is_positroid(oracle_family, bases):
        failures.append("closure")
    if loop_coloop_status(result, j) != "loop" or result_necklace.k != (k - 1 if contracting else k):
        failures.append("structure")
    return False, failures


class _BasesMemo:
    """bases_of for one sweep, memoised on the necklace's entry masks.

    A basis is a k-subset Gale-above every entry, so the family depends on
    the entry masks alone.  Each family is kept as one int whose bit m is
    set when the subset with mask m is a basis, and comes back built from a
    table of shared Subsets, keyed by mask: one memo serves one ground set
    size.  At BASES_MEMO_CAP families the memo starts over.
    """

    def __init__(self):
        self.families: dict[tuple[int, ...], int] = {}
        self.subsets: dict[int, Subset] = {}

    def __call__(self, necklace: GrassmannNecklace) -> BasisFamily:
        key = tuple(e.mask for e in necklace.entries)
        bits = self.families.get(key)
        if bits is None:
            family = bases_of(necklace)
            if len(self.families) >= BASES_MEMO_CAP:
                self.families.clear()
            bits = 0
            for h in family.bases:
                bits |= 1 << h.mask
                self.subsets.setdefault(h.mask, h)
            self.families[key] = bits
            return family
        subsets = self.subsets
        found = []
        while bits:
            low = bits & -bits
            found.append(subsets[low.bit_length() - 1])
            bits ^= low
        return _family(len(key), key[0].bit_count(), frozenset(found))


def _sweep(n, kind_values, stride, offset):
    """One worker's share of the sweep: perms whose index hits the offset."""
    kinds = sorted((MinorKind(v) for v in kind_values), key=lambda kk: kk.value)
    instances = 0
    degenerate = 0
    mismatches = 0
    check_failures: dict[str, int] = {}
    first_key = None
    first_msg = None

    def record(key, msg, tags):
        nonlocal mismatches, first_key, first_msg
        mismatches += 1
        for tag in tags:
            check_failures[tag] = check_failures.get(tag, 0) + 1
        if first_key is None or key < first_key:
            first_key = key
            first_msg = msg
    bases = _BasesMemo()
    for idx, p in enumerate(enumerate_decorated_perms(n)):
        if idx % stride != offset:
            continue
        necklace = necklace_of(p)
        if perm_of(necklace) != p:
            record((idx, 0, ""), f"n={n} perm={format_perm(p)}: round-trip", ["round-trip"])
        family = bases(necklace)
        if oracle_necklace(family) != necklace:
            record((idx, 0, ""), f"n={n} perm={format_perm(p)}: min-recovery", ["min-recovery"])
        for j in range(1, n + 1):
            for kind in kinds:
                skipped, fails = _verify_instance(p, necklace, family, j, kind, bases)
                if skipped:
                    degenerate += 1
                else:
                    instances += 1
                if fails:
                    record(
                        (idx, j, kind.value),
                        f"n={n} perm={format_perm(p)} j={j} kind={kind.value}: {', '.join(fails)}",
                        fails,
                    )
    return {
        "instances": instances,
        "degenerate": degenerate,
        "mismatches": mismatches,
        "check_failures": check_failures,
        "first_key": first_key,
        "first_msg": first_msg,
    }


def _sweep_star(args):
    return _sweep(*args)


def verify_all(n: int, kinds=BOTH_KINDS, jobs: int = 1) -> VerificationReport:
    """Exhaustively compare both minor routes against the oracle for size n.

    Sweeps every decorated permutation of {1..n} and every j, checking the
    permutation walk and the necklace swap formula against brute-force set
    arithmetic, plus round trips, square commutation, positroid closure, and
    the degenerate conventions.  jobs > 1 splits the sweep across processes;
    results are merged deterministically.
    """
    kinds = frozenset(kinds)
    if not kinds or not kinds <= BOTH_KINDS:
        raise ValidationError("kinds must be a nonempty subset of {contraction, restriction}")
    if not isinstance(jobs, int) or jobs < 1:
        raise ValidationError(f"jobs must be a positive integer, got {jobs!r}")
    kind_values = tuple(sorted(kk.value for kk in kinds))
    start = time.perf_counter()
    if jobs == 1:
        parts = [_sweep(n, kind_values, 1, 0)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # jobs stays the stride, so the partition and the merged report do
        # not depend on how many workers actually run it
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_sweep_star, [(n, kind_values, jobs, off) for off in range(jobs)]))
    elapsed = time.perf_counter() - start
    check_failures: dict[str, int] = {}
    for part in parts:
        for tag, cnt in part["check_failures"].items():
            check_failures[tag] = check_failures.get(tag, 0) + cnt
    firsts = [(part["first_key"], part["first_msg"]) for part in parts if part["first_key"] is not None]
    first_msg = min(firsts)[1] if firsts else None
    return VerificationReport(
        n=n,
        kind="both" if len(kinds) == 2 else next(iter(kinds)).value,
        instances_checked=sum(part["instances"] for part in parts),
        degenerate_skipped=sum(part["degenerate"] for part in parts),
        mismatches=sum(part["mismatches"] for part in parts),
        check_failures=check_failures,
        first_failure=first_msg,
        elapsed=elapsed,
    )
