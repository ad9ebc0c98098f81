"""Brute-force minors, recognition, enumeration, and the sweep verifier."""

import concurrent.futures
import math
import random
import weakref
from functools import reduce
from itertools import combinations
from operator import and_, or_

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import positroids.cli
import positroids.families
import positroids.oracle
from positroids import (
    BasisFamily,
    DecoratedPermutation,
    MinorKind,
    PreconditionError,
    Subset,
    ValidationError,
    bases_of,
    check_matroid,
    contract,
    enumerate_decorated_perms,
    format_perm,
    gale_leq,
    is_degenerate,
    is_positroid,
    necklace_of,
    oracle_contract,
    oracle_delete,
    oracle_necklace,
    parse_bases,
    parse_perm,
    restrict,
    verify_all,
)
from positroids.core import _necklace


def to_bits(family):
    """The family as a bit vector: bit m set when the subset with mask m is a basis."""
    return sum(1 << s.mask for s in family.bases)


def two_subsets_of_triangle():
    # uniform rank 2 on three elements
    return BasisFamily.of(3, [[1, 2], [1, 3], [2, 3]])


class TestOracleMinors:
    def test_contract(self):
        out = oracle_contract(two_subsets_of_triangle(), 1)
        assert out.k == 1
        assert {s.members for s in out.bases} == {(2,), (3,)}

    def test_delete(self):
        out = oracle_delete(two_subsets_of_triangle(), 1)
        assert out.k == 2
        assert {s.members for s in out.bases} == {(2, 3)}

    def test_contract_of_loop_is_empty_sentinel(self):
        family = BasisFamily.of(3, [[2], [3]])  # 1 is a loop
        out = oracle_contract(family, 1)
        assert out.is_empty and out.k == 0

    def test_delete_of_coloop_is_empty_sentinel(self):
        family = BasisFamily.of(3, [[1, 2], [1, 3]])  # 1 is a coloop
        out = oracle_delete(family, 1)
        assert out.is_empty and out.k == 2

    def test_range_checked(self):
        with pytest.raises(ValidationError):
            oracle_contract(two_subsets_of_triangle(), 4)


class TestOracleNecklace:
    def test_recovers_golden_necklace(self):
        necklace = necklace_of(parse_perm("8,1,4,2,5+,7,3,6"))
        assert oracle_necklace(bases_of(necklace)) == necklace

    def test_uniform(self):
        necklace = oracle_necklace(two_subsets_of_triangle())
        assert [e.members for e in necklace.entries] == [(1, 2), (2, 3), (1, 3)]

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            oracle_necklace(BasisFamily.empty(3, 1))


class TestRecognition:
    def test_positroids_pass(self):
        assert is_positroid(two_subsets_of_triangle())
        assert is_positroid(BasisFamily.of(2, [[1], [2]]))
        assert is_positroid(BasisFamily.of(3, [[]]))  # rank 0, all loops

    def test_matroid_but_not_positroid(self):
        # two parallel classes {1,3} and {2,4}: a matroid whose Gale minima
        # admit the extra set {1,3}
        family = BasisFamily.of(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        assert check_matroid(family)
        assert not is_positroid(family)

    def test_not_even_a_matroid(self):
        family = BasisFamily.of(4, [[1, 2], [3, 4]])
        assert not check_matroid(family)
        assert not is_positroid(family)

    def test_every_swept_positroid_passes(self):
        for p in enumerate_decorated_perms(4):
            family = bases_of(necklace_of(p))
            assert is_positroid(family)
            assert check_matroid(family)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            is_positroid(BasisFamily.empty(2, 1))
        with pytest.raises(PreconditionError):
            check_matroid(BasisFamily.empty(2, 1))


class TestEnumeration:
    def test_counts(self):
        assert [sum(1 for _ in enumerate_decorated_perms(n)) for n in range(1, 5)] == [2, 5, 16, 65]

    def test_order_is_deterministic(self):
        got = [format_perm(p) for p in enumerate_decorated_perms(2)]
        assert got == ["1-,2-", "1-,2+", "1+,2-", "1+,2+", "2,1"]

    def test_no_duplicates(self):
        seen = list(enumerate_decorated_perms(3))
        assert len(seen) == len(set(seen))

    def test_cap(self):
        with pytest.raises(ValidationError):
            next(enumerate_decorated_perms(11))

    def test_n_is_checked_at_the_call(self):
        # not at the first next(): a bad n fails where it is passed
        for n, message in ((11, "n=11 exceeds the enumeration cap of 10"),
                           (0, "ground set size must be a positive integer, got 0")):
            with pytest.raises(ValidationError) as err:
                enumerate_decorated_perms(n)
            assert str(err.value) == message


class TestVerifyAll:
    def test_small_sweeps_are_clean(self):
        for n, checked, degenerate in ((1, 2, 2), (2, 12, 8), (3, 66, 30), (4, 392, 128)):
            report = verify_all(n)
            assert report.mismatches == 0, report.first_failure
            assert report.instances_checked == checked
            assert report.degenerate_skipped == degenerate
            assert report.check_failures == {}
            assert report.first_failure is None
            assert report.kind == "both"
            assert "ok" in report.summary()

    def test_single_kind(self):
        report = verify_all(3, kinds={MinorKind.CONTRACTION})
        assert report.kind == "contraction"
        assert report.mismatches == 0
        assert report.instances_checked + report.degenerate_skipped == 16 * 3

    def test_parallel_matches_serial(self):
        for n in range(1, 7):
            serial = verify_all(n, jobs=1)
            parallel = verify_all(n, jobs=2)
            for field in ("n", "kind", "instances_checked", "degenerate_skipped", "mismatches",
                          "check_failures", "first_failure"):
                assert getattr(serial, field) == getattr(parallel, field)

    @pytest.mark.parametrize("cores", [2, None])
    def test_workers_capped_at_core_count(self, monkeypatch, cores):
        # An in-process stand-in for the pool: records the worker count it is
        # asked for and maps serially, so no process is started at any jobs.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(positroids.oracle.os, "cpu_count", lambda: cores)
        serial = verify_all(3)
        for jobs in (2, 5000):
            report = verify_all(3, jobs=jobs)
            for field in ("n", "kind", "instances_checked", "degenerate_skipped", "mismatches",
                          "check_failures", "first_failure"):
                assert getattr(report, field) == getattr(serial, field)
        assert asked == [min(2, cores or 1), cores or 1]

    def test_report_obj(self):
        obj = verify_all(2).to_obj()
        assert set(obj) == {
            "n", "kind", "instances_checked", "degenerate_skipped", "mismatches",
            "check_failures", "first_failure", "elapsed",
        }

    def test_bad_arguments(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for bad arguments")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for n, message in (
            (2.0, "ground set size must be a positive integer, got 2.0"),
            ("3", "ground set size must be a positive integer, got '3'"),
            (True, "ground set size must be a positive integer, got True"),
            (0, "ground set size must be a positive integer, got 0"),
            (11, "n=11 exceeds the enumeration cap of 10"),
        ):
            for jobs in (1, 2):
                with pytest.raises(ValidationError) as err:
                    verify_all(n, jobs=jobs)
                assert str(err.value) == message
        with pytest.raises(ValidationError):
            verify_all(2, kinds=set())
        with pytest.raises(ValidationError):
            verify_all(2, jobs=0)
        for jobs in (True, False, 1.0):
            with pytest.raises(ValidationError, match=r"^jobs must be a positive integer, got "):
                verify_all(2, jobs=jobs)


class TestBasesMemo:
    """The sweep's table of Schubert cells answers exactly as bases_of and hides nothing."""

    def test_family_bits_match_bases_of(self):
        # every necklace of n <= 7, 13,700 of them at n = 7
        for n in range(1, 8):
            uppers = positroids.oracle._schubert_cells(n)
            for p in enumerate_decorated_perms(n):
                necklace = necklace_of(p)
                assert positroids.oracle._family_bits(uppers, necklace.masks) == to_bits(bases_of(necklace))

    @pytest.mark.parametrize("op", ["contract", "restrict"])
    def test_wrong_minor_is_reported(self, monkeypatch, op):
        # The last permutation of n = 4, so the wrong result's bases come from
        # cells that every earlier necklace of n = 4 has read already.
        target, j = parse_perm("4,3,2,1"), 2
        real = getattr(positroids.oracle, op)

        def wrong(p, jj):
            result = real(p, jj)
            if p == target and jj == j:
                return result.with_color(j, -1)  # j a coloop instead of a loop
            return result

        monkeypatch.setattr(positroids.oracle, op, wrong)
        report = verify_all(4)
        kind = "contraction" if op == "contract" else "restriction"
        assert report.mismatches > 0
        assert report.check_failures.get("oracle", 0) > 0
        assert report.first_failure.startswith(f"n=4 perm=4,3,2,1 j=2 kind={kind}: ")
        assert "oracle" in report.first_failure.split(": ", 1)[1].split(", ")


def report_fields(report):
    """The report as an object, less its elapsed time."""
    obj = report.to_obj()
    del obj["elapsed"]
    return obj


class TestSweepTables:
    """The sweep's tables of minor results and kept minima change no report and end with the sweep."""

    def test_a_small_cap_empties_the_tables_and_changes_no_report(self, monkeypatch):
        expected = report_fields(verify_all(4))
        sizes = {}
        real = positroids.oracle._keep

        def keep(table, key, value):
            value = real(table, key, value)
            sizes.setdefault(id(table), []).append(len(table))
            return value

        monkeypatch.setattr(positroids.oracle, "SWEEP_TABLE_CAP", 3)
        monkeypatch.setattr(positroids.oracle, "_keep", keep)
        assert report_fields(verify_all(4)) == expected
        assert len(sizes) == 2
        for seen in sizes.values():
            # never above the cap, and emptied more than once
            assert max(seen) == 3
            assert seen.count(1) > 2

    def test_each_distinct_minor_and_j_is_checked_once(self, monkeypatch):
        # n = 5 fills 206 minors and 282 kept families, far below the cap,
        # so no entry is dropped and made again
        n, counts = 5, dict.fromkeys(["necklace_of", "loop_coloop_status"], 0)
        for name in counts:
            def counted(*args, real=getattr(positroids.oracle, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(positroids.oracle, name, counted)
        assert verify_all(n).mismatches == 0
        perms = list(enumerate_decorated_perms(n))
        # (minor, j) of every instance that is not degenerate, per kind
        met = {kind: {(walk(p, j), j) for p in perms for j in range(1, n + 1) if not is_degenerate(p, j, kind)}
               for kind, walk in ((MinorKind.CONTRACTION, contract), (MinorKind.RESTRICTION, restrict))}
        minor_js = met[MinorKind.CONTRACTION] | met[MinorKind.RESTRICTION]
        minors = {minor for minor, _ in minor_js}
        # once per permutation, per distinct minor and per distinct contracted (minor, j)
        assert counts["necklace_of"] == len(perms) + len(minors) + len(met[MinorKind.CONTRACTION])
        assert counts["loop_coloop_status"] == len(minor_js)
        assert (len(perms), len(minors), len(minor_js)) == (326, 206, 325)

    def test_no_table_outlives_the_sweep(self, monkeypatch):
        class Table(dict):
            pass

        tables = []

        class Sweep(positroids.oracle._Sweep):
            def __init__(self, n):
                super().__init__(n)
                self.minors, self.kept = Table(), Table()
                tables.extend([self.minors, self.kept])

        monkeypatch.setattr(positroids.oracle, "_Sweep", Sweep)
        verify_all(4)
        assert len(tables) == 2 and all(tables)  # both were read and filled
        refs = [weakref.ref(table) for table in tables]
        tables.clear()
        assert [ref() for ref in refs] == [None, None]


def assert_bits_match_the_set_oracle(family):
    """The sweep's bit helpers against the set-based public oracle."""
    n = family.n
    planes = positroids.oracle._element_planes(n)
    bits = to_bits(family)
    for j in range(1, n + 1):
        assert positroids.oracle._contract_bits(bits, planes, j) == to_bits(oracle_contract(family, j))
        assert positroids.oracle._delete_bits(bits, planes, j) == to_bits(oracle_delete(family, j))
    necklace = oracle_necklace(family)
    minima = tuple(e.mask for e in necklace.entries)
    assert positroids.oracle._gale_minima(bits, planes) == minima
    uppers = positroids.oracle._schubert_cells(n)
    assert positroids.oracle._family_bits(uppers, minima) == to_bits(bases_of(necklace))


def assert_contracted_minima(bits, sweep):
    """At every j, the minima of the contraction are those of the bases through j less j.

    The contraction is cut out by its minima exactly when `add_kept` finds the
    bases through j cut out by theirs.
    """
    planes = sweep.planes
    for j in range(1, len(planes) + 1):
        bit = 1 << (j - 1)
        through, closed = sweep.add_kept(bits & planes[j - 1])
        assert through == positroids.oracle._gale_minima(bits & planes[j - 1], planes)
        expected = None if through is None else tuple(m & ~bit for m in through)
        contracted = positroids.oracle._contract_bits(bits, planes, j)
        assert positroids.oracle._gale_minima(contracted, planes) == expected
        assert closed == (expected is not None and positroids.oracle._family_bits(sweep.uppers, expected) == contracted)


# every (n, k) with n <= 4, and two more at n = 5 with 1,023 families each
EXHAUSTIVE_SIZES = [(n, k) for n in range(1, 5) for k in range(n + 1)] + [(5, 2), (5, 3)]


def every_equal_size_family(n, k):
    """Every non-empty family of k-subsets of {1..n}, matroid or not."""
    subsets = [Subset.of(n, c) for c in combinations(range(1, n + 1), k)]
    for chosen in range(1, 1 << len(subsets)):
        yield BasisFamily(n, k, frozenset(s for i, s in enumerate(subsets) if chosen >> i & 1))


class TestBitFamilies:
    """Bit-vector families inside the sweep agree with the set-based functions."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_element_planes(self, n):
        planes = positroids.oracle._element_planes(n)
        assert len(planes) == n
        for e, plane in enumerate(planes, start=1):
            assert plane == sum(1 << m for m in range(1 << n) if m >> (e - 1) & 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_schubert_cells(self, n):
        uppers = positroids.oracle._schubert_cells(n)
        subsets = [Subset(n, m) for m in range(1 << n)]
        for t, row in enumerate(uppers, start=1):
            for a in subsets:
                above = (b for b in subsets if len(b) == len(a) and gale_leq(a, b, t))
                assert row[a.mask] == sum(1 << b.mask for b in above)

    @pytest.mark.parametrize("n, k", EXHAUSTIVE_SIZES)
    def test_every_equal_size_family(self, n, k):
        for family in every_equal_size_family(n, k):
            assert_bits_match_the_set_oracle(family)

    def test_empty_family_has_no_minima(self):
        for n in range(1, 5):
            assert positroids.oracle._gale_minima(0, positroids.oracle._element_planes(n)) is None
            assert positroids.oracle._Sweep(n).add_kept(0) == (None, False)

    # the sweep reads a contracted family off the bases through j: its minima
    # are theirs with j cleared, and it is cut out by its minima exactly when
    # they are cut out by theirs (`_verify_instance` gives the three facts why)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_contracted_minima_of_every_bit_vector(self, n):
        sweep = positroids.oracle._Sweep(n)
        for bits in range(1 << (1 << n)):
            assert_contracted_minima(bits, sweep)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_contracted_minima_of_every_positroid(self, n):
        sweep = positroids.oracle._Sweep(n)
        for p in enumerate_decorated_perms(n):
            assert_contracted_minima(positroids.oracle._family_bits(sweep.uppers, necklace_of(p).masks), sweep)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(4, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
    def test_contracted_minima_of_random_bit_vectors(self, n_bits):
        n, bits = n_bits
        assert_contracted_minima(bits, positroids.oracle._Sweep(n))

    def test_family_its_minima_do_not_cut_out_is_not_closed(self):
        # {1,2} and {3,4}, not a matroid: their minima {1,2}, {1,2}, {3,4}, {3,4} cut out {1,3} alone
        sweep = positroids.oracle._Sweep(4)
        minima, closed = sweep.add_kept(1 << 0b0011 | 1 << 0b1100)
        assert (minima, closed) == ((0b0011, 0b0011, 0b1100, 0b1100), False)
        assert positroids.oracle._family_bits(sweep.uppers, minima) == 1 << 0b0101

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_positroid_is_closed(self, n):
        sweep = positroids.oracle._Sweep(n)
        for p in enumerate_decorated_perms(n):
            masks = necklace_of(p).masks
            assert sweep.add_kept(positroids.oracle._family_bits(sweep.uppers, masks)) == (masks, True)


@st.composite
def equal_size_families(draw, max_n=10):
    """A non-empty family of k-subsets: random sets, or the bases of a random positroid.

    Positroids are drawn only up to n = 10, where listing their bases stays cheap.
    """
    n = draw(st.integers(1, max_n))
    if n <= 10 and draw(st.booleans()):
        images = tuple(draw(st.permutations(list(range(1, n + 1)))))
        colors = {i: draw(st.sampled_from((-1, 1))) for i in range(1, n + 1) if images[i - 1] == i}
        return bases_of(necklace_of(DecoratedPermutation.of(images, colors)))
    k = draw(st.integers(0, n))
    sets = draw(st.lists(st.sets(st.integers(1, n), min_size=k, max_size=k), min_size=1, max_size=40))
    return BasisFamily.of(n, sets)


@given(equal_size_families())
@settings(max_examples=150, deadline=None)
def test_bit_families_match_the_set_oracle(family):
    assert_bits_match_the_set_oracle(family)


def lex_least(family, t):
    """The basis whose members, listed in the order from t, come first lexicographically."""
    n = family.n
    return min(family.bases, key=lambda h: sorted((x - t) % n for x in h.members))


@given(equal_size_families(max_n=64))
@settings(max_examples=150, deadline=None)
def test_oracle_necklace_is_the_lexicographic_minimum(family):
    entries = oracle_necklace(family).entries
    assert entries == tuple(lex_least(family, t) for t in range(1, family.n + 1))


def one_bits(mask):
    """The set bits of mask, each as an int of its own."""
    bits = []
    while mask:
        bits.append(mask & -mask)
        mask &= mask - 1
    return bits


def pairwise_exchange(family):
    """Basis exchange read literally: for bases A, B and x in A-B some y in B-A fixes A-x+y."""
    masks = {h.mask for h in family.bases}
    for a in masks:
        for b in masks:
            for x in one_bits(a & ~b):
                for y in one_bits(b & ~a):
                    if a ^ x | y in masks:
                        break
                else:
                    return False
    return True


@pytest.mark.parametrize("n, k", EXHAUSTIVE_SIZES)
def test_check_matroid_matches_the_pairwise_reference(n, k):
    for family in every_equal_size_family(n, k):
        assert check_matroid(family) == pairwise_exchange(family), family


@st.composite
def sparse_positroids(draw):
    """The bases of a positroid on up to 64 elements where at most 8 positions move.

    The moving positions are permuted among themselves and every other one is
    a loop or a coloop, so the family has at most C(8, 4) = 70 bases.
    """
    n = draw(st.integers(1, 64))
    moving = draw(st.lists(st.integers(1, n), max_size=8, unique=True))
    images = list(range(1, n + 1))
    for pos, image in zip(moving, draw(st.permutations(moving))):
        images[pos - 1] = image
    colors = {i: draw(st.sampled_from((-1, 1))) for i in range(1, n + 1) if images[i - 1] == i}
    return bases_of(necklace_of(DecoratedPermutation.of(tuple(images), colors)))


@st.composite
def perturbed_positroids(draw):
    """A positroid's bases with one basis dropped, or with one k-subset added."""
    family = draw(sparse_positroids())
    n, k, bases = family.n, family.k, set(family.bases)
    if len(bases) > 1 and draw(st.booleans()):
        bases.remove(draw(st.sampled_from(sorted(bases, key=lambda h: h.mask))))
    else:
        bases.add(Subset.of(n, draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
    return BasisFamily(n, k, frozenset(bases))


@given(st.one_of(equal_size_families(max_n=64), sparse_positroids(), perturbed_positroids()))
@settings(max_examples=300, deadline=None)
def test_check_matroid_matches_the_pairwise_reference_up_to_64(family):
    assert check_matroid(family) == pairwise_exchange(family)


@given(sparse_positroids())
@settings(max_examples=100, deadline=None)
def test_positroids_pass_basis_exchange_up_to_64(family):
    assert check_matroid(family)


# The oracle's bodies as they were written on Subsets, before families held
# masks: the mask bodies must give the same answers, right or wrong.


def reference_oracle_contract(family, j):
    n, bit = family.n, 1 << (j - 1)
    kept = frozenset(Subset(n, h.mask ^ bit) for h in family.bases if h.mask & bit)
    return BasisFamily(n, max(family.k - 1, 0), kept)


def reference_oracle_delete(family, j):
    bit = 1 << (j - 1)
    return BasisFamily(family.n, family.k, frozenset(h for h in family.bases if not h.mask & bit))


def reference_oracle_necklace(family):
    n = family.n
    rows = {format(h.mask, f"0{n}b")[::-1]: h.mask for h in family.bases}
    return tuple(rows[max(rows, key=lambda row: row[t:] + row[:t])] for t in range(n))


def reference_is_positroid(family):
    # the minima of a family that is no matroid need not be a necklace, so they are wrapped unchecked
    return bases_of(_necklace(reference_oracle_necklace(family))).bases == family.bases


@given(st.one_of(equal_size_families(max_n=64), sparse_positroids(), perturbed_positroids()), st.data())
@settings(max_examples=300, deadline=None)
def test_mask_oracle_matches_the_subset_level_bodies(family, data):
    j = data.draw(st.integers(1, family.n))
    assert oracle_contract(family, j) == reference_oracle_contract(family, j)
    assert oracle_delete(family, j) == reference_oracle_delete(family, j)
    minima = reference_oracle_necklace(family)
    assert oracle_necklace(family).masks == minima
    # bases_of walks the k-subsets of the elements in some minimum but not all,
    # past any budget on a random family at large n: those are left out
    coloops, free = reduce(and_, minima), reduce(or_, minima) & ~reduce(and_, minima)
    if math.comb(free.bit_count(), family.k - coloops.bit_count()) <= 5000:
        assert is_positroid(family) == reference_is_positroid(family)


def test_the_known_wrong_recognition_keeps_its_answers():
    # no matroid, yet cut out by its Gale minima: is_positroid answers True
    # here, which is wrong (ROADMAP.md, item 1), and both bodies agree on it
    family = parse_bases("1,3;1,6;1,7;1,8;2,8;3,8;6,8;7,8", 8)
    assert is_positroid(family) and reference_is_positroid(family)
    assert not check_matroid(family) and not pairwise_exchange(family)


def spread_family_text():
    # six random 32-subsets of 64 elements: their Gale minima spread over all
    # 64, and the walk over their cut-out would try all C(64, 32) 32-subsets
    rng = random.Random(29)
    return ";".join(",".join(map(str, sorted(rng.sample(range(1, 65), 32)))) for _ in range(6))


def test_a_basis_below_a_minimum_answers_without_a_walk(monkeypatch, capsys):
    def combinations(*args):
        raise AssertionError("is_positroid walked the cut-out")

    monkeypatch.setattr(positroids.families, "combinations", combinations)
    text = spread_family_text()
    assert not is_positroid(parse_bases(text))
    assert positroids.cli.run(["is-positroid", "--bases", text]) == 0
    assert capsys.readouterr().out == "positroid: false\nmatroid-exchange: false\n"


def counted_walks(monkeypatch, budget=math.inf):
    """Wrap `families.combinations`; each walk appends [candidates in all, candidates drawn] to the list returned."""
    walks = []
    real_combinations = positroids.families.combinations

    def combinations(pool, r):
        walks.append([math.comb(len(pool), r), 0])
        for combo in real_combinations(pool, r):
            walks[-1][1] += 1
            if walks[-1][1] > budget:
                raise AssertionError(f"the walk drew more than {budget} candidates")
            yield combo

    monkeypatch.setattr(positroids.families, "combinations", combinations)
    return walks


def test_the_bounds_test_agrees_with_the_walk_on_every_family(monkeypatch):
    # every nonempty family of k-subsets for n <= 5: the answer is the same
    # whether the bases meet the bounds test first (comb read as huge) or not,
    # and whether or not the walk stops once it finds more sets than the family
    families = [
        BasisFamily.of(n, family)
        for n in range(1, 6)
        for k in range(n + 1)
        for size in range(1, math.comb(n, k) + 1)
        for family in combinations(combinations(range(1, n + 1), k), size)
    ]
    reference = [reference_is_positroid(family) for family in families]  # bases_of walks with no family to stop at
    walks = counted_walks(monkeypatch)
    answers, walked = {}, {}
    for candidates in (0, math.inf):
        monkeypatch.setattr(positroids.families, "comb", lambda *args: candidates)
        walks.clear()
        answers[candidates] = [is_positroid(family) for family in families]
        walked[candidates] = list(walks)
    assert answers[0] == answers[math.inf] == reference
    assert 0 < len(walked[math.inf]) < len(families)  # the bounds test answered some, and not all
    assert 0 < sum(drawn < total for total, drawn in walked[0]) < len(families)  # the walk stopped early on some, and not all
    assert 0 < sum(answers[0]) < len(families)


def test_a_cut_out_larger_than_the_family_stops_the_walk(monkeypatch, capsys):
    # the 40 cyclic intervals of 20 elements: each is the Gale minimum from its
    # start, so every basis passes the bounds, which cut out far more sets; the
    # walk over all C(40, 20) candidates would not return, and it stops at the
    # 41st found, one more than the family holds, after 41 candidates
    walks = counted_walks(monkeypatch, budget=1000)
    text = ";".join(",".join(str((start + i) % 40 + 1) for i in range(20)) for start in range(40))
    family = parse_bases(text)
    assert (len(family), family.k) == (40, 20)
    assert not is_positroid(family) and not check_matroid(family)
    assert positroids.cli.run(["is-positroid", "--bases", text]) == 0
    assert capsys.readouterr().out == "positroid: false\nmatroid-exchange: false\n"
    assert walks == [[math.comb(40, 20), 41]] * 2


def uniform_bases(k, n):
    return [list(c) for c in combinations(range(1, n + 1), k)]


def run_is_positroid(capsys, sets):
    text = ";".join(",".join(map(str, s)) for s in sets)
    assert positroids.cli.run(["is-positroid", "--bases", text]) == 0
    return capsys.readouterr().out.strip()


def test_uniform_family_through_the_cli(capsys):
    # U(6,12): all 924 six-subsets of twelve elements
    assert run_is_positroid(capsys, uniform_bases(6, 12)) == "positroid: true\nmatroid-exchange: true"


@pytest.mark.parametrize("dropped", [0, 286])
def test_uniform_family_less_one_basis_through_the_cli(capsys, dropped):
    # basis 0 is {1..6}, the necklace's first entry; basis 286 is {1,3,5,7,9,11}, no entry
    sets = uniform_bases(6, 12)
    del sets[dropped]
    family = BasisFamily.of(12, sets)
    positroid = bases_of(oracle_necklace(family)).bases == family.bases
    matroid = pairwise_exchange(family)
    expected = f"positroid: {str(positroid).lower()}\nmatroid-exchange: {str(matroid).lower()}"
    assert run_is_positroid(capsys, sets) == expected
