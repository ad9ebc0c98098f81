"""Value types, the perm/necklace bijection, basis enumeration, text forms."""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from positroids import (
    BasisFamily,
    DecoratedPermutation,
    GrassmannNecklace,
    InvalidNecklaceError,
    Subset,
    ValidationError,
    bases_of,
    bases_to_obj,
    dual,
    enumerate_decorated_perms,
    format_bases,
    format_necklace,
    format_perm,
    loop_coloop_status,
    necklace_of,
    necklace_step,
    necklace_to_obj,
    necklace_violations,
    oracle_necklace,
    parse_bases,
    parse_necklace,
    parse_perm,
    parse_subset,
    perm_of,
    perm_to_obj,
    validate_necklace,
    verify_all,
)
from positroids import core
from positroids.minors import contract_necklace

GOLDEN_PERM = "8,1,4,2,5+,7,3,6"
GOLDEN_NECKLACE = [
    [1, 2, 3, 6],
    [2, 3, 6, 8],
    [1, 3, 6, 8],
    [1, 4, 6, 8],
    [1, 2, 6, 8],
    [1, 2, 6, 8],
    [1, 2, 7, 8],
    [1, 2, 3, 8],
]


def naive_gale_leq(a, b, t, n):
    ka = sorted((x - t) % n for x in a)
    kb = sorted((x - t) % n for x in b)
    return all(x <= y for x, y in zip(ka, kb))


def naive_bases(entries, n, k):
    # reference filter: every candidate against every rotation, no bitmasks
    out = set()
    for combo in combinations(range(1, n + 1), k):
        if all(naive_gale_leq(entries[t - 1], combo, t, n) for t in range(1, n + 1)):
            out.add(frozenset(combo))
    return out


@st.composite
def decorated_perms(draw, max_n):
    n = draw(st.integers(1, max_n))
    images = draw(st.permutations(range(1, n + 1)))
    colors = {i: draw(st.sampled_from((-1, 1))) for i, v in enumerate(images, start=1) if v == i}
    return DecoratedPermutation.of(images, colors)


def assert_bases_match_naive_filter(necklace):
    got = {frozenset(s.members) for s in bases_of(necklace).bases}
    expected = naive_bases([set(e.members) for e in necklace.entries], necklace.n, necklace.k)
    assert got == expected, format_necklace(necklace)


class TestSubset:
    def test_construction_and_members(self):
        s = Subset.of(6, [5, 2, 3])
        assert s.members == (2, 3, 5)
        assert len(s) == 3
        assert list(s) == [2, 3, 5]
        assert 2 in s and 4 not in s and 0 not in s and 7 not in s
        assert Subset.empty(4).members == ()
        assert Subset.full(4).members == (1, 2, 3, 4)

    def test_set_operations(self):
        a = Subset.of(5, [1, 2, 4])
        b = Subset.of(5, [2, 3])
        assert (a - b).members == (1, 4)
        assert (a | b).members == (1, 2, 3, 4)
        assert (a & b).members == (2,)
        assert a.add(5).members == (1, 2, 4, 5)
        assert a.discard(2).members == (1, 4)
        assert a.discard(3) == a
        assert Subset.of(5, [2]).issubset(b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            Subset.of(4, [0])
        with pytest.raises(ValidationError):
            Subset.of(4, [5])
        with pytest.raises(ValidationError):
            Subset.of(0, [])
        with pytest.raises(ValidationError):
            Subset.of(65, [1])
        with pytest.raises(ValidationError):
            Subset.of(3, [1]) - Subset.of(4, [1])

    def test_rejects_a_bool_mask(self):
        # True == 1, but Subset(3, True) once kept `mask` True
        for mask in (True, False):
            with pytest.raises(ValidationError) as err:
                Subset(3, mask)
            assert str(err.value) == f"mask {mask!r} does not fit in a 3-element ground set"
        assert Subset(3, 1) == Subset.of(3, [1])


class TestBasisFamily:
    def test_rejects_a_bool_rank(self):
        # True == 1, but BasisFamily.empty(2, True) once gave bases_to_obj's `"k": true`
        builds = (
            lambda k: BasisFamily(2, k, frozenset()),
            lambda k: BasisFamily(2, k, frozenset({Subset.of(2, [1])})),
            lambda k: BasisFamily.empty(2, k),
        )
        for build in builds:
            for k in (True, False):
                with pytest.raises(ValidationError) as err:
                    build(k)
                assert str(err.value) == f"rank {k!r} out of range for n=2"
        assert bases_to_obj(BasisFamily.empty(2, 1))["k"] == 1


# every public entry point that takes a ground set size, built at size n
GROUND_SET_TAKERS = {
    "Subset": lambda n: Subset(n, 1),
    "Subset.of": lambda n: Subset.of(n, [1]),
    "Subset.empty": Subset.empty,
    "Subset.full": Subset.full,
    "BasisFamily": lambda n: BasisFamily(n, 1, frozenset()),
    "BasisFamily.of": lambda n: BasisFamily.of(n, [[1]]),
    "DecoratedPermutation.identity": DecoratedPermutation.identity,
    "parse_subset": lambda n: parse_subset("1", n),
    "parse_bases": lambda n: parse_bases("1", n),
    "enumerate_decorated_perms": lambda n: next(enumerate_decorated_perms(n)),
    "verify_all": verify_all,
}


@pytest.mark.parametrize("name", GROUND_SET_TAKERS)
def test_a_bool_ground_set_size_is_rejected(name):
    # True == 1, but it once came out as `Subset.of(True, [1])` and `"n": true`
    build = GROUND_SET_TAKERS[name]
    for n in (True, False):
        with pytest.raises(ValidationError) as err:
            build(n)
        assert str(err.value) == f"ground set size must be a positive integer, got {n!r}"
    build(1)


class TestDecoratedPermutation:
    def test_accepts_valid(self):
        p = DecoratedPermutation.of((2, 1, 3), {3: -1})
        assert p.n == 3
        assert p.image(1) == 2
        assert p.inverse() == (2, 1, 3)
        assert p.fixed_points == (3,)
        assert p.color(3) == -1

    def test_identity(self):
        p = DecoratedPermutation.identity(3, -1)
        assert p.images == (1, 2, 3)
        assert all(p.color(i) == -1 for i in (1, 2, 3))

    def test_with_color(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: 1})
        q = p.with_color(1, -1)
        assert q.color(1) == -1 and p.color(1) == 1
        with pytest.raises(ValidationError):
            p.with_color(2, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            DecoratedPermutation.of((1, 1), {1: 1})
        with pytest.raises(ValidationError):
            DecoratedPermutation.of((1, 3), {1: 1})
        with pytest.raises(ValidationError):
            DecoratedPermutation.of((2, 1, 3), {})  # 3 needs a color
        with pytest.raises(ValidationError):
            DecoratedPermutation.of((2, 1, 3), {3: -1, 1: 1})  # 1 is not fixed
        with pytest.raises(ValidationError):
            DecoratedPermutation.of((2, 1, 3), {3: 0})

    def test_constructor_validates_like_of(self):
        # the raw constructor once accepted these, and necklace_of((2, 1, 3), ())
        # came out as 1;2;1 with the fixed point 3 in no entry
        with pytest.raises(ValidationError, match=r"fixed points \[3\] are missing colors"):
            DecoratedPermutation((2, 1, 3), ())
        with pytest.raises(ValidationError, match="in increasing order"):
            DecoratedPermutation((1, 2), ((2, 1), (1, 1)))
        with pytest.raises(ValidationError, match="in increasing order"):
            DecoratedPermutation((1, 2), ((1, 1), (1, 1), (2, 1)))
        with pytest.raises(ValidationError, match="color given for 1, which is not a fixed point"):
            DecoratedPermutation((2, 1), ((1, 1),))
        with pytest.raises(ValidationError, match="image 1 repeats at position 2"):
            DecoratedPermutation((1, 1), ((1, 1),))
        with pytest.raises(ValidationError, match="not a .fixed point, color. pair"):
            DecoratedPermutation((1,), (1,))
        with pytest.raises(ValidationError, match="must be tuples"):
            DecoratedPermutation([2, 1], ())
        assert DecoratedPermutation((1, 2), ((1, 1), (2, -1))) == DecoratedPermutation.of((1, 2), {2: -1, 1: 1})
        with pytest.raises(ValidationError, match="color given for x, which is not a fixed point"):
            DecoratedPermutation.of((2, 1, 3), {3: -1, "x": 1})

    def test_rejects_bools(self):
        # True == 1, but a bool image or key once came out as `2,True` and `"perm": [2, true]`
        cases = [
            (((2, True), {}), "image at position 2 True is a bool, not an element"),
            (((True, 2), {True: -1, 2: 1}), "image at position 1 True is a bool, not an element"),
            (((1, 2), {True: -1, 2: 1}), "color entry 1 is given for True, a bool, not a fixed point"),
            (((1, 2), {1: 1, 2: True}), "color of 2 must be +1 or -1, got True"),
        ]
        for (images, colors), message in cases:
            for build in (DecoratedPermutation.of, lambda im, co: DecoratedPermutation(im, tuple(sorted(co.items())))):
                with pytest.raises(ValidationError) as err:
                    build(images, colors)
                assert str(err.value) == message
        with pytest.raises(ValidationError, match="color of 1 must be"):
            DecoratedPermutation.identity(2, True)
        with pytest.raises(ValidationError, match="color must be"):
            parse_perm("1+,2+").with_color(1, False)
        # other ints keep passing, and a non-int keeps its old message
        assert format_perm(DecoratedPermutation.of((2, 1), {})) == "2,1"
        with pytest.raises(ValidationError, match=r"^image at position 1 1\.0 is out of range 1\.\.2$"):
            DecoratedPermutation((1.0, 2), ())

    def test_rejects_float_colors(self):
        # -1.0 == -1, but a float color once reached perm_to_obj as `"col": {"1": 1.0}`
        for build, message in (
            (lambda: DecoratedPermutation.identity(2, 1.0), "color of 1 must be +1 or -1, got 1.0"),
            (lambda: DecoratedPermutation.of((2, 1, 3), {3: -1.0}), "color of 3 must be +1 or -1, got -1.0"),
            (lambda: DecoratedPermutation((2, 1, 3), ((3, -1.0),)), "color of 3 must be +1 or -1, got -1.0"),
            (lambda: parse_perm("1+,3,2").with_color(1, -1.0), "color must be +1 or -1, got -1.0"),
        ):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == message
        assert perm_to_obj(parse_perm("1+,3,2").with_color(1, -1))["col"] == {"1": -1}

    def test_identity_validates(self):
        with pytest.raises(ValidationError, match="color of 1 must be"):
            DecoratedPermutation.identity(3, 0)
        with pytest.raises(ValidationError, match="positive integer"):
            DecoratedPermutation.identity(0)

    def test_status(self):
        p = DecoratedPermutation.of((1, 3, 2, 4), {1: 1, 4: -1})
        assert loop_coloop_status(p, 1) == "loop"
        assert loop_coloop_status(p, 4) == "coloop"
        assert loop_coloop_status(p, 2) == "neither"
        assert loop_coloop_status(p, 3) == "neither"


class TestDual:
    def test_golden(self):
        q = dual(parse_perm("2,3,1,4+,5-"))
        assert format_perm(q) == "3,1,2,4-,5+"

    def test_bases_are_the_complements(self):
        for n in range(1, 6):
            full = (1 << n) - 1
            for p in enumerate_decorated_perms(n):
                family = bases_of(necklace_of(p))
                complements = frozenset(Subset(n, full ^ h.mask) for h in family.bases)
                assert bases_of(necklace_of(dual(p))).bases == complements


class TestBijection:
    def test_golden_necklace(self):
        p = parse_perm(GOLDEN_PERM)
        necklace = necklace_of(p)
        assert [list(e.members) for e in necklace.entries] == GOLDEN_NECKLACE
        assert necklace.k == 4

    def test_golden_round_trip(self):
        p = parse_perm(GOLDEN_PERM)
        assert perm_of(necklace_of(p)) == p

    def test_single_cycle_gives_singletons(self):
        # i -> i+1 leaves each entry holding just its own starting point
        for n in range(2, 7):
            p = DecoratedPermutation.of(tuple(range(2, n + 1)) + (1,))
            necklace = necklace_of(p)
            assert [e.members for e in necklace.entries] == [(r,) for r in range(1, n + 1)]
            assert perm_of(necklace) == p

    def test_identity_extremes(self):
        coloops = DecoratedPermutation.identity(4, -1)
        assert all(e == Subset.full(4) for e in necklace_of(coloops).entries)
        loops = DecoratedPermutation.identity(4, 1)
        assert all(e == Subset.empty(4) for e in necklace_of(loops).entries)
        assert perm_of(necklace_of(coloops)) == coloops
        assert perm_of(necklace_of(loops)) == loops

    def test_colors_change_the_necklace(self):
        plus = DecoratedPermutation.of((1, 3, 2), {1: 1})
        minus = DecoratedPermutation.of((1, 3, 2), {1: -1})
        assert necklace_of(plus) != necklace_of(minus)
        assert 1 not in necklace_of(plus).entry(1)
        assert 1 in necklace_of(minus).entry(1)

    def test_necklace_entries_satisfy_step_rule(self):
        p = parse_perm("3,1,5,2,4")
        necklace = necklace_of(p)
        validate_necklace(necklace.entries)
        for i in range(1, 6):
            assert necklace_step(necklace.entry(i), i, p.image(i)) == necklace.entry(i + 1)
        # an i or image outside 1..n is rejected whether or not i is in the entry
        for i, image in ((99, 2), (2, 99), (1, 99), (0, 2), (2, 0), (1.0, 2)):
            with pytest.raises(ValidationError):
                necklace_step(Subset.of(3, [1]), i, image)


# Candidate necklaces as (ground set size, members of each entry), read by
# the Subset-level tests below and, as text, by the parser's mask-level check.
NECKLACE_CASES = {
    "valid": (3, [[1, 2], [2, 3], [3, 1]]),
    "cyclic": (2, [[1], [2]]),
    "wrong-count": (3, [[1], [2]]),
    "size": (2, [[1, 2], [2]]),
    "should-repeat": (3, [[1], [1], [2]]),
    "drops-too-much": (3, [[1, 2], [3, 1], [3, 1]]),
    "constructor": (3, [[1], [1, 2], [3]]),
    "all-violations": (3, [[1], [3], [2]]),
}


def case_entries(name):
    n, sets = NECKLACE_CASES[name]
    return [Subset.of(n, s) for s in sets]


class TestNecklaceValidation:
    def test_valid_sequences_pass(self):
        entries = case_entries("valid")
        necklace = validate_necklace(entries)
        assert necklace.n == 3 and necklace.k == 2
        assert perm_of(necklace).images == (3, 1, 2)

    def test_entry_indexing_is_cyclic(self):
        necklace = validate_necklace(case_entries("cyclic"))
        assert necklace.entry(3) == necklace.entry(1)
        assert necklace.entry(0) == necklace.entry(2)

    def test_wrong_entry_count(self):
        bad = necklace_violations(case_entries("wrong-count"))
        assert any(v.clause == "shape" for v in bad)

    def test_size_mismatch(self):
        bad = necklace_violations(case_entries("size"))
        assert any(v.clause == "size" and v.index == 2 for v in bad)

    def test_step_violation_when_entry_should_repeat(self):
        # 2 is absent from I_2, so I_3 must equal I_2
        bad = necklace_violations(case_entries("should-repeat"))
        assert any(v.clause == "step" and v.index == 2 for v in bad)

    def test_step_violation_when_entry_drops_too_much(self):
        bad = necklace_violations(case_entries("drops-too-much"))
        assert any(v.clause == "step" and v.index == 1 for v in bad)

    def test_entry_that_is_not_a_subset(self):
        for entries, idx in (([1, 2], 1), ([Subset.of(2, [1]), 2], 2)):
            with pytest.raises(ValidationError, match=f"entry {idx} is not a Subset"):
                validate_necklace(entries)

    def test_empty_necklace_rejected(self):
        with pytest.raises(ValidationError, match="needs at least one entry"):
            GrassmannNecklace(())

    def test_constructor_validates(self):
        # not a necklace: I_2 is larger than I_1, and the steps at 1 and 2 break the rule
        entries = tuple(case_entries("constructor"))
        with pytest.raises(InvalidNecklaceError) as err:
            GrassmannNecklace(entries)
        assert err.value.violations == necklace_violations(entries)
        # so neither bases_of nor contract_necklace can be handed one
        with pytest.raises(InvalidNecklaceError):
            bases_of(GrassmannNecklace(entries))
        with pytest.raises(InvalidNecklaceError):
            contract_necklace(GrassmannNecklace(entries), 1)
        with pytest.raises(ValidationError, match="entry 2 is not a Subset"):
            GrassmannNecklace((Subset.of(2, [1]), 2))
        assert GrassmannNecklace(necklace_of(parse_perm(GOLDEN_PERM)).entries) == necklace_of(parse_perm(GOLDEN_PERM))

    def test_validate_necklace_checks_once(self, monkeypatch):
        calls = []
        check = core.necklace_violations

        def counted(entries):
            calls.append(entries)
            return check(entries)

        monkeypatch.setattr(core, "necklace_violations", counted)
        validate_necklace([Subset.of(2, [1]), Subset.of(2, [2])])
        assert len(calls) == 1

    def test_all_violations_reported(self):
        with pytest.raises(InvalidNecklaceError) as err:
            validate_necklace(case_entries("all-violations"))
        assert len(err.value.violations) == 2
        assert {v.index for v in err.value.violations} == {2, 3}

    @pytest.mark.parametrize("name", sorted(NECKLACE_CASES))
    def test_parse_reports_the_subset_level_violations(self, name):
        # parse_necklace checks masks; the text fixes n to the entry count, so
        # "wrong-count" reads as a valid necklace on two elements
        sets = NECKLACE_CASES[name][1]
        entries = [Subset.of(len(sets), s) for s in sets]
        expected = necklace_violations(entries)
        assert bool(expected) == (name not in ("valid", "cyclic", "wrong-count"))
        text = ";".join(",".join(map(str, s)) for s in sets)
        if expected:
            with pytest.raises(InvalidNecklaceError) as err:
                parse_necklace(text)
            assert err.value.violations == expected
        else:
            assert parse_necklace(text) == GrassmannNecklace(entries)


class TestBases:
    def test_singleton_necklace(self):
        necklace = validate_necklace([Subset.of(4, [r]) for r in range(1, 5)])
        family = bases_of(necklace)
        assert {s.members for s in family.bases} == {(1,), (2,), (3,), (4,)}

    def test_full_necklace(self):
        necklace = validate_necklace([Subset.full(3)] * 3)
        assert [s.members for s in bases_of(necklace)] == [(1, 2, 3)]

    def test_uniform_necklace(self):
        entries = [Subset.of(6, [(r + d - 1) % 6 + 1 for d in range(3)]) for r in range(1, 7)]
        family = bases_of(validate_necklace(entries))
        assert len(family) == 20  # every 3-subset of a 6-set

    def test_golden_matches_naive_filter(self):
        p = parse_perm(GOLDEN_PERM)
        necklace = necklace_of(p)
        got = {frozenset(s.members) for s in bases_of(necklace).bases}
        expected = naive_bases([set(e.members) for e in necklace.entries], 8, 4)
        assert got == expected
        assert len(got) == 16

    def test_exhaustive_against_naive_filter(self):
        # every necklace with n <= 6, one per decorated permutation
        for n in range(1, 7):
            for p in enumerate_decorated_perms(n):
                assert_bases_match_naive_filter(necklace_of(p))

    @given(decorated_perms(max_n=14))
    @settings(max_examples=40, deadline=None)
    def test_random_against_naive_filter(self, p):
        assert_bases_match_naive_filter(necklace_of(p))

    def test_one_basis_at_n_40(self):
        # 20 coloops and 20 loops: one basis, not a search through C(40, 20) subsets
        p = parse_perm(",".join([f"{i}-" for i in range(1, 21)] + [f"{i}+" for i in range(21, 41)]))
        assert [h.members for h in bases_of(necklace_of(p)).bases] == [tuple(range(1, 21))]

    def test_coloops_and_loops_around_a_cycle_at_n_40(self):
        # coloops 1..18 join every basis and loops 23..40 none; 19..22 carry
        # the rank-2 positroid of the cycle 21,22,19,20 (the 2-subsets of a 4-set)
        text = ",".join([f"{i}-" for i in range(1, 19)] + ["21", "22", "19", "20"] + [f"{i}+" for i in range(23, 41)])
        family = bases_of(necklace_of(parse_perm(text)))
        assert family.k == 20
        assert {h.members[18:] for h in family.bases} == set(combinations(range(19, 23), 2))
        assert all(h.members[:18] == tuple(range(1, 19)) for h in family.bases)

    def test_family_type(self):
        family = BasisFamily.of(3, [[1, 2], [1, 3]])
        assert family.k == 2 and len(family) == 2
        assert Subset.of(3, [1, 2]) in family
        assert family.sorted_bases()[0].members == (1, 2)
        with pytest.raises(ValidationError):
            BasisFamily.of(3, [[1, 2], [3]])
        with pytest.raises(ValidationError):
            BasisFamily.of(3, [])
        sentinel = BasisFamily.empty(3, 1)
        assert sentinel.is_empty and len(sentinel) == 0
        with pytest.raises(ValidationError, match=r"rank 4 out of range for n=3"):
            BasisFamily.empty(3, 4)

    def test_family_constructor_validates(self):
        # a rank-2 family holding a 1-subset has no necklace to recover
        with pytest.raises(ValidationError, match=r"basis \{1\} has size 1, expected 2"):
            oracle_necklace(BasisFamily(3, 2, frozenset({Subset.of(3, [1])})))
        with pytest.raises(ValidationError, match=r"basis \{1,2\} lives on n=4, expected n=3"):
            BasisFamily(3, 2, frozenset({Subset.of(4, [1, 2])}))
        with pytest.raises(ValidationError, match="is not a Subset"):
            BasisFamily(3, 2, frozenset({(1, 2)}))
        for n, k in ((0, 0), (65, 1), (3, -1), (3, 4), (3, 1.0)):
            with pytest.raises(ValidationError):
                BasisFamily(n, k, frozenset())
        family = BasisFamily(3, 2, frozenset({Subset.of(3, [1, 2]), Subset.of(3, [2, 3])}))
        assert family == BasisFamily.of(3, [[1, 2], [2, 3]])


class TestTextForms:
    def test_perm_round_trip(self):
        for text in (GOLDEN_PERM, "6,1,4,8,2,7,3,5", "1+,2-,3+", "2,1", "1-"):
            assert format_perm(parse_perm(text)) == text

    def test_perm_whitespace_insensitive(self):
        assert parse_perm(" 2 , 1 ") == parse_perm("2,1")

    @pytest.mark.parametrize("text, canonical", [
        ("2,01", "2,1"), (" 2 , 01 ", "2,1"), ("٢,١", "2,1"), ("01+,2-", "1+,2-"), ("1+,002-", "1+,2-"),
        ("１-,3,2", "1-,3,2"),
    ])
    def test_perm_accepts_what_int_reads(self, text, canonical):
        # a token the canonical table lacks (a leading zero, other Unicode
        # digits) is read by int(), and its value is the canonical text's
        assert parse_perm(text) == parse_perm(canonical)
        assert format_perm(parse_perm(text)) == canonical

    def test_perm_parse_errors_carry_positions(self):
        with pytest.raises(ValidationError, match="token 2"):
            parse_perm("3,2,1")
        with pytest.raises(ValidationError, match="token 2"):
            parse_perm("3,x,1")
        with pytest.raises(ValidationError, match="token 3"):
            parse_perm("2,1,4")
        with pytest.raises(ValidationError, match="token 3"):
            parse_perm("2,1,1")  # duplicate image
        with pytest.raises(ValidationError, match="token 2"):
            parse_perm("2,3+,1")  # sign on a non-fixed point
        with pytest.raises(ValidationError):
            parse_perm("")

    def test_necklace_round_trip(self):
        texts = ["1,2,3,6;2,3,6,8;1,3,6,8;1,4,6,8;1,2,6,8;1,2,6,8;1,2,7,8;1,2,3,8", "1;2", ";;"]
        for text in texts:
            assert format_necklace(parse_necklace(text)) == text

    def test_necklace_parse_validates(self):
        with pytest.raises(InvalidNecklaceError):
            parse_necklace("1;1;2")
        with pytest.raises(ValidationError):
            parse_necklace("1,2;2,9")

    def test_bases_text(self):
        family = parse_bases("2,3;1,2")
        assert family.n == 3
        assert format_bases(family) == "1,2;2,3"
        assert parse_bases("1;2", n=4).n == 4
        with pytest.raises(ValidationError):
            parse_bases("")
        with pytest.raises(ValidationError):
            parse_bases(";")  # no elements to infer n from

    def test_object_forms(self):
        p = parse_perm("2,1,3-")
        assert perm_to_obj(p) == {"n": 3, "perm": [2, 1, 3], "col": {"3": -1}}
        necklace = necklace_of(p)
        obj = necklace_to_obj(necklace)
        assert obj["n"] == 3 and obj["k"] == 2
        assert obj["entries"] == [[1, 3], [2, 3], [1, 3]]
        fam = bases_of(necklace)
        bobj = bases_to_obj(fam)
        assert bobj["n"] == 3 and bobj["k"] == 2
        assert bobj["bases"] == [list(s.members) for s in fam.sorted_bases()]
