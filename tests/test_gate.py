"""Planted-fault gate: every check of the exhaustive sweep still fires.

Each row plants one deliberate fault, patched onto the module that defines
the function and onto the oracle's binding of it, runs `verify_all(4)` and
asserts the exact failure tags and the first failure the sweep reports.
Across the table every tag the verifier can emit appears at least once, so
a check that stops firing fails this file.  Every row runs again with sweep
tables that store nothing, so a table cannot hide or change a report.
"""

import pytest

import positroids.core
import positroids.minors
import positroids.oracle
from positroids import DecoratedPermutation, dual, verify_all
from positroids.core import ValidationError, _necklace, _perm


def contract_stopping_early(real):
    # the walk stops one square early: the square just before the preimage
    # of j is never tested, so its image is never swapped
    def contract(p, j):
        images = p.images
        n = len(images)
        if images[j - 1] == j:
            return real(p, j)
        mu = list(images)
        mu[j - 1] = j
        q = images[j - 1]
        a = j % n + 1
        while images[a - 1] != j:
            pa = images[a - 1]
            t = a % n + 1
            if images[t - 1] != j and (q == a or ((q - t) % n < (pa - t) % n < (j - t) % n)):
                mu[a - 1] = q
                q = pa
            a = t
        mu[a - 1] = q
        return DecoratedPermutation.of(tuple(mu), positroids.minors._rebuild_colors(p, mu))

    return contract


def contract_leaving_j_on_its_preimage(build):
    # the walk never sets down the carried image, so the preimage of j keeps
    # j and the result is not a permutation; build makes the result from the
    # images and the colour dict, checked or not
    def fault(real):
        def contract(p, j):
            images = p.images
            n = len(images)
            if images[j - 1] == j:
                return real(p, j)
            mu = list(images)
            mu[j - 1] = j
            q = images[j - 1]
            a = j % n + 1
            while images[a - 1] != j:
                pa = images[a - 1]
                t = a % n + 1
                if q == a or ((q - t) % n < (pa - t) % n < (j - t) % n):
                    mu[a - 1] = q
                    q = pa
                a = t
            return build(tuple(mu), positroids.minors._rebuild_colors(p, mu))

        return contract

    return fault


def unchecked(images, colors):
    # the way the real walk builds its result
    return _perm(images, tuple(colors.items()))


def new_fixed_points_coloured_coloops(real):
    def rebuild_colors(p, mu):
        old = dict(p.colors)
        return {i: old.get(i, -1) for i in range(1, len(mu) + 1) if mu[i - 1] == i}

    return rebuild_colors


def restrict_without_recolouring(real):
    def restrict(p, j):
        if p.image(j) == j:
            return real(p, j)
        return dual(positroids.minors.contract(dual(p), j))

    return restrict


def swap_read_one_late(kind_contracting):
    # entry a takes the swap of entry a + 1, for one kind of minor
    def fault(real):
        def minor(necklace, j, contracting):
            swaps, minor_necklace = real(necklace, j, contracting)
            if contracting != kind_contracting:
                return swaps, minor_necklace
            bit = 1 << (j - 1)
            late = swaps[1:] + swaps[:1]
            return late, _necklace(tuple(m if s == j else m ^ bit ^ 1 << (s - 1) for m, s in zip(necklace.masks, late)))

        return minor

    return fault


def contract_necklace_skipping_entry_1(real):
    def contract_necklace(necklace, j):
        return _necklace((necklace.masks[0],) + real(necklace, j).masks[1:])

    return contract_necklace


def restrict_necklace_leaving_j_once(real):
    # the first entry holding j keeps it
    def restrict_necklace(necklace, j):
        masks = list(real(necklace, j).masks)
        for a, mask in enumerate(necklace.masks):
            if mask >> (j - 1) & 1:
                masks[a] = mask
                break
        return _necklace(tuple(masks))

    return restrict_necklace


def perm_of_flipping_a_coloop(real):
    def perm_of(necklace):
        p = real(necklace)
        coloops = [i for i, color in p.colors if color == -1]
        return p.with_color(coloops[0], 1) if coloops else p

    return perm_of


def perm_of_rejecting_all_fixed_points(real):
    # a necklace whose entries are all equal comes from a perm that fixes everything
    def perm_of(necklace):
        if len(set(necklace.masks)) == 1:
            raise ValidationError("planted: every entry is the same")
        return real(necklace)

    return perm_of


def family_bits_dropping_one(real):
    # the lowest basis of every family with more than one
    def family_bits(uppers, masks):
        bits = real(uppers, masks)
        rest = bits & (bits - 1)
        return rest if rest else bits

    return family_bits


def necklace_of_marking_a_second_loop(real):
    # entry 1 takes the second loop of every permutation that has two
    def necklace_of(p):
        necklace = real(p)
        loops = [i for i, color in p.colors if color == 1]
        if len(loops) < 2:
            return necklace
        return _necklace((necklace.masks[0] | 1 << (loops[1] - 1),) + necklace.masks[1:])

    return necklace_of


def gale_minima_rotated_for_two_bases(real):
    # the minima of every two-basis family, read one start late
    def gale_minima(bits, planes):
        minima = real(bits, planes)
        return minima[1:] + minima[:1] if bits.bit_count() == 2 else minima

    return gale_minima


def bit_deletion_dropping_one(real):
    def delete_bits(bits, planes, j):
        kept = real(bits, planes, j)
        rest = kept & (kept - 1)  # without its lowest basis
        return rest if rest else kept

    return delete_bits


def contract_keeping_a_coloop(real):
    # contracting a coloop must recolour it as a loop
    def contract(p, j):
        if p.image(j) == j and p.color(j) == -1:
            return p
        return real(p, j)

    return contract


def contract_leaving_a_loop_in_place(real):
    # contracting a loop kills every basis, so the convention wants the
    # all-loop identity; this returns the permutation unchanged instead
    def contract(p, j):
        if p.image(j) == j and p.color(j) == 1:
            return p.with_color(j, 1)
        return real(p, j)

    return contract


def loop_1_read_as_a_coloop(real):
    # the loop 1 is misreported, whatever the permutation
    def loop_coloop_status(p, i):
        status = real(p, i)
        return "coloop" if i == 1 and status == "loop" else status

    return loop_coloop_status


def contract_indexing_past_the_end(real):
    # the walk reads the image after j's image 0-based, off the end of the
    # images when j goes to n: a crash, not an invalid value
    def contract(p, j):
        p.images[p.images[j - 1]]
        return real(p, j)

    return contract


# (function name, fault, check_failures, first_failure after "n=4 ")
GATE = [
    pytest.param(
        "contract", contract_stopping_early,
        {"oracle": 56, "necklace-agreement": 56, "color-flip": 28, "square-pattern": 56, "structure": 48,
         "commutation": 36},
        "perm=1-,3,4,2 j=2 kind=contraction: oracle, necklace-agreement, color-flip, square-pattern, structure",
        id="contract-stops-one-square-early",
    ),
    # restrict walks through contract too, so both kinds raise
    pytest.param(
        "contract", contract_leaving_j_on_its_preimage(DecoratedPermutation.of),
        {"raised": 264},
        "perm=1-,2-,4,3 j=3 kind=contraction: raised ValidationError: image 3 repeats at position 4; "
        "not a permutation",
        id="contract-leaves-j-on-its-preimage",
    ),
    # the same fault in a walk that builds its result unchecked, as contract
    # does: the sweep's permutation guard raises instead
    pytest.param(
        "contract", contract_leaving_j_on_its_preimage(unchecked),
        {"raised": 264},
        "perm=1-,2-,4,3 j=3 kind=contraction: raised ValidationError: image 3 repeats at position 4; "
        "not a permutation",
        id="unchecked-contract-leaves-j-on-its-preimage",
    ),
    # a crash in a routine under test fails its instances and the sweep goes on
    pytest.param(
        "contract", contract_indexing_past_the_end,
        {"raised": 98},
        "perm=1-,2-,3-,4- j=4 kind=contraction: raised IndexError: tuple index out of range",
        id="contract-indexes-past-the-end",
    ),
    pytest.param(
        "_rebuild_colors", new_fixed_points_coloured_coloops,
        {"oracle": 224, "necklace-agreement": 224, "color-flip": 92, "structure": 224},
        "perm=1-,2-,4,3 j=3 kind=contraction: oracle, necklace-agreement, color-flip, structure",
        id="new-fixed-point-coloured-coloop",
    ),
    pytest.param(
        "restrict", restrict_without_recolouring,
        {"oracle": 132, "necklace-agreement": 132, "structure": 132},
        "perm=1-,2-,4,3 j=3 kind=restriction: oracle, necklace-agreement, structure",
        id="restrict-skips-with-color",
    ),
    pytest.param(
        "_minor", swap_read_one_late(True),
        {"necklace-formula": 132, "necklace-agreement": 132, "color-flip": 132, "commutation": 132,
         "square-pattern": 132},
        "perm=1-,2-,4,3 j=3 kind=contraction: necklace-formula, necklace-agreement, color-flip, commutation, "
        "square-pattern",
        id="contraction-swap-one-late",
    ),
    pytest.param(
        "_minor", swap_read_one_late(False),
        {"necklace-formula": 132, "necklace-agreement": 132, "commutation": 132, "square-pattern": 132},
        "perm=1-,2-,4,3 j=3 kind=restriction: necklace-formula, necklace-agreement, commutation, square-pattern",
        id="restriction-swap-one-late",
    ),
    pytest.param(
        "contract_necklace", contract_necklace_skipping_entry_1,
        {"necklace-formula": 66, "necklace-agreement": 66, "color-flip": 66, "commutation": 66,
         "square-pattern": 66},
        "perm=1-,2-,4,3 j=4 kind=contraction: necklace-formula, necklace-agreement, color-flip, commutation, "
        "square-pattern",
        id="contract-necklace-skips-entry-1",
    ),
    pytest.param(
        "restrict_necklace", restrict_necklace_leaving_j_once,
        {"necklace-formula": 132, "necklace-agreement": 132, "commutation": 132, "square-pattern": 132},
        "perm=1-,2-,4,3 j=3 kind=restriction: necklace-formula, necklace-agreement, commutation, square-pattern",
        id="restrict-necklace-leaves-j-once",
    ),
    pytest.param(
        "perm_of", perm_of_flipping_a_coloop,
        {"round-trip": 41},
        "perm=1-,2-,3-,4-: round-trip",
        id="perm-of-flips-a-coloop",
    ),
    pytest.param(
        "perm_of", perm_of_rejecting_all_fixed_points,
        {"raised": 16},
        "perm=1-,2-,3-,4-: raised ValidationError: planted: every entry is the same",
        id="perm-of-raises",
    ),
    pytest.param(
        "_family_bits", family_bits_dropping_one,
        {"min-recovery": 49, "necklace-formula": 196, "oracle": 112, "closure": 148},
        "perm=1-,2-,4,3: min-recovery",
        id="bases-of-drops-one-basis",
    ),
    # the sweep reuses a minor's necklace and family, and a kept family's
    # minima, across the instances that give equal ones: a fault at either
    # seam is still reported once per instance
    pytest.param(
        "necklace_of", necklace_of_marking_a_second_loop,
        {"oracle": 164, "necklace-agreement": 183, "structure": 164, "min-recovery": 10, "necklace-formula": 36,
         "closure": 36, "raised": 17, "color-flip": 57, "commutation": 12, "square-pattern": 3},
        "perm=1-,2-,3-,4+ j=1 kind=contraction: oracle, necklace-agreement, structure",
        id="necklace-of-marks-a-second-loop",
    ),
    pytest.param(
        "_gale_minima", gale_minima_rotated_for_two_bases,
        {"min-recovery": 24, "necklace-formula": 128, "closure": 128},
        "perm=1-,2-,4,3: min-recovery",
        id="gale-minima-rotated-for-two-bases",
    ),
    pytest.param(
        "_delete_bits", bit_deletion_dropping_one,
        {"oracle": 88, "necklace-formula": 88},
        "perm=1-,2+,4,3 j=2 kind=restriction: oracle, necklace-formula",
        id="bit-deletion-drops-one-basis",
    ),
    # none of the rows above reaches the convention check
    pytest.param(
        "contract", contract_keeping_a_coloop,
        {"oracle": 64, "necklace-agreement": 64, "convention": 64, "structure": 64},
        "perm=1-,2-,3-,4- j=1 kind=contraction: oracle, necklace-agreement, convention, structure",
        id="contract-keeps-a-coloop",
    ),
    # contracting a loop is degenerate, and only the convention check runs;
    # the row above contracts coloops, which are not degenerate
    pytest.param(
        "contract", contract_leaving_a_loop_in_place,
        {"convention": 60},
        "perm=1-,2-,3-,4+ j=4 kind=contraction: convention",
        id="contract-leaves-a-loop-in-place",
    ),
    # the sweep reads a minor's loop verdict once per j, through this binding
    pytest.param(
        "loop_coloop_status", loop_1_read_as_a_coloop,
        {"structure": 98},
        "perm=1-,2-,3-,4- j=1 kind=contraction: structure",
        id="loop-1-read-as-a-coloop",
    ),
]

TAGS = {
    "round-trip", "min-recovery", "oracle", "necklace-formula", "necklace-agreement", "color-flip",
    "convention", "commutation", "square-pattern", "closure", "structure", "raised",
}


def plant(monkeypatch, name, fault):
    """Replace `name` where it is defined and where the oracle looks it up."""
    modules = [m for m in (positroids.core, positroids.minors) if hasattr(m, name)]
    real = getattr(modules[0] if modules else positroids.oracle, name)
    fake = fault(real)
    for module in {*modules, positroids.oracle}:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize("name, fault, failures, first", GATE)
def test_planted_fault_is_reported(monkeypatch, name, fault, failures, first):
    plant(monkeypatch, name, fault)
    report = verify_all(4)
    assert report.mismatches > 0
    assert report.check_failures == failures
    assert report.first_failure == f"n=4 {first}"


@pytest.mark.parametrize("name, fault, failures, first", GATE)
def test_planted_fault_is_reported_with_no_table(monkeypatch, name, fault, failures, first):
    # the sweep's tables only stand in for pure calls: a sweep that stores
    # nothing, and so makes every call afresh, gives the same report
    class Table(dict):
        def __setitem__(self, key, value):
            pass

    tables = []

    class Sweep(positroids.oracle._Sweep):
        def __init__(self, n):
            super().__init__(n)
            self.minors, self.kept = Table(), Table()
            tables.extend([self.minors, self.kept])

    monkeypatch.setattr(positroids.oracle, "_Sweep", Sweep)
    plant(monkeypatch, name, fault)
    report = verify_all(4)
    assert len(tables) == 2 and not any(tables)
    assert report.check_failures == failures
    assert report.first_failure == f"n=4 {first}"


def test_every_tag_is_planted():
    planted = set()
    for row in GATE:
        planted |= set(row.values[2])
    assert planted == TAGS
