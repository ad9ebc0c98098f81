"""Value semantics of the public record types: repr, equality, hashing, immutability, copies.

The classes are plain classes on `core._Value`, not dataclasses.  The golden
strings below were printed by the frozen dataclasses they replaced, so these
tests pin the replacement to the same bytes and the same behaviour.
"""

import copy
import pickle
from functools import partial
from itertools import combinations

import pytest

from positroids import (
    BasisFamily,
    DecoratedPermutation,
    GrassmannNecklace,
    MinorKind,
    MinorResult,
    MinorTrace,
    NecklaceViolation,
    SquareRow,
    Subset,
    VerificationReport,
    apply_minor,
    bases_of,
    bases_to_obj,
    format_bases,
    gale_leq,
    necklace_of,
    necklace_violations,
    parse_bases,
    parse_perm,
    trace_minor,
)
from positroids import core, families, subsets

P = parse_perm("6,1,4,8,2,7,3,5")
NECKLACE = necklace_of(P)
TRACE = trace_minor(parse_perm("2,3,1"), 1, MinorKind.CONTRACTION)


def report():
    return VerificationReport(
        n=2, kind="both", instances_checked=10, degenerate_skipped=4, mismatches=1,
        check_failures={"oracle": 1}, first_failure="positroids contract --perm 2,1 -j 1", elapsed=0.25,
    )


# one value of each type; VerificationReport is the one mutable type
VALUES = {
    "Subset": Subset.of(8, [1, 3]),
    "DecoratedPermutation": P,
    "GrassmannNecklace": NECKLACE,
    "NecklaceViolation": NecklaceViolation(2, "size", "size 1 differs from size 2 of entry 1"),
    "BasisFamily": bases_of(NECKLACE),
    "MinorResult": apply_minor(P, 3, MinorKind.CONTRACTION),
    "SquareRow": TRACE.rows[1],
    "MinorTrace": TRACE,
    "VerificationReport": report(),
}
FROZEN = [name for name in VALUES if name != "VerificationReport"]


def test_reprs_are_the_dataclass_reprs():
    bad = [Subset.of(3, [1, 2]), Subset.of(3, [1]), Subset.of(3, [1, 2])]
    assert repr(necklace_violations(bad)) == (
        "[NecklaceViolation(index=2, clause='size', detail='size 1 differs from size 2 of entry 1'), "
        "NecklaceViolation(index=1, clause='step', detail='I_2 loses more than element 1 from I_1'), "
        "NecklaceViolation(index=2, clause='step', detail='2 is absent from I_2 but I_3 != I_2')]"
    )
    assert repr(apply_minor(P, 3, MinorKind.CONTRACTION)) == (
        "MinorResult(perm=DecoratedPermutation('6,1,3+,4+,8,7,2,5'), degenerate=False)"
    )
    assert repr(apply_minor(parse_perm("1+,3,2"), 1, MinorKind.CONTRACTION)) == (
        "MinorResult(perm=DecoratedPermutation('1+,2+,3+'), degenerate=True)"
    )
    assert repr(trace_minor(P, 5, MinorKind.RESTRICTION).rows[0]) == (
        "SquareRow(a=1, entry=Subset.of(8, [1, 2, 3, 5]), minor_entry=Subset.of(8, [1, 2, 3, 6]), "
        "image=6, minor_image=8, swap=6, case=<CaseLabel.R_C: 'R-c'>)"
    )
    assert repr(TRACE) == (
        "MinorTrace(kind=<MinorKind.CONTRACTION: 'contraction'>, j=1, source=DecoratedPermutation('2,3,1'), "
        "result=DecoratedPermutation('1+,2+,3+'), rows=("
        "SquareRow(a=1, entry=Subset.of(3, [1]), minor_entry=Subset.of(3, [1]), image=2, minor_image=1, "
        "swap=1, case=<CaseLabel.CASE1: 'Case1'>), "
        "SquareRow(a=2, entry=Subset.of(3, [2]), minor_entry=Subset.of(3, [1]), image=3, minor_image=2, "
        "swap=2, case=<CaseLabel.CASE4A: 'Case4a'>), "
        "SquareRow(a=3, entry=Subset.of(3, [3]), minor_entry=Subset.of(3, [1]), image=1, minor_image=3, "
        "swap=3, case=<CaseLabel.CASE3: 'Case3'>)))"
    )
    assert repr(report()) == (
        "VerificationReport(n=2, kind='both', instances_checked=10, degenerate_skipped=4, mismatches=1, "
        "check_failures={'oracle': 1}, first_failure='positroids contract --perm 2,1 -j 1', elapsed=0.25)"
    )


def test_report_obj_is_the_asdict_dict_with_its_own_failures():
    rep = report()
    obj = rep.to_obj()
    assert repr(obj) == (
        "{'n': 2, 'kind': 'both', 'instances_checked': 10, 'degenerate_skipped': 4, 'mismatches': 1, "
        "'check_failures': {'oracle': 1}, 'first_failure': 'positroids contract --perm 2,1 -j 1', 'elapsed': 0.25}"
    )
    obj["check_failures"]["oracle"] = 99
    obj["check_failures"]["closure"] = 1
    assert rep.check_failures == {"oracle": 1}
    assert rep.to_obj()["check_failures"] == {"oracle": 1}


def test_match_args_name_the_fields_in_order():
    assert {name: type(value).__match_args__ for name, value in VALUES.items()} == {
        "Subset": ("n", "mask"),
        "DecoratedPermutation": ("images", "colors"),
        "GrassmannNecklace": ("masks",),
        "NecklaceViolation": ("index", "clause", "detail"),
        "BasisFamily": ("n", "k", "masks"),
        "MinorResult": ("perm", "degenerate"),
        "SquareRow": ("a", "entry", "minor_entry", "image", "minor_image", "swap", "case"),
        "MinorTrace": ("kind", "j", "source", "result", "rows"),
        "VerificationReport": ("n", "kind", "instances_checked", "degenerate_skipped", "mismatches",
                               "check_failures", "first_failure", "elapsed"),
    }
    match Subset.of(4, [2]):
        case Subset(n, mask):
            assert (n, mask) == (4, 2)


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_value_hashes_as_its_field_tuple(name):
    # the hash a frozen dataclass gave, so sets of values iterate in the same order
    assert hash(VALUES[name]) == hash(fields(VALUES[name]))


def test_checked_constructors_and_unchecked_builders_agree():
    pairs = [
        (Subset(5, 0b101), subsets._subset(5, 0b101)),
        (Subset.of(5, [1, 3]), subsets._subset(5, 0b101)),
        (DecoratedPermutation((2, 1, 3), ((3, -1),)), core._perm((2, 1, 3), ((3, -1),))),
        (DecoratedPermutation.of([2, 1, 3], {3: -1}), parse_perm("2,1,3-")),
        (GrassmannNecklace(list(NECKLACE.entries)), core._necklace(NECKLACE.masks)),
        (BasisFamily(8, 4, bases_of(NECKLACE).bases), families._family(8, 4, bases_of(NECKLACE).masks)),
        (BasisFamily(2, 1, frozenset({Subset.of(2, [1])})), BasisFamily.of(2, [[1]])),
    ]
    for checked, built in pairs:
        assert checked == built and not checked != built
        assert hash(checked) == hash(built)
        assert repr(checked) == repr(built)
    assert Subset(5, 0b101) != subsets._subset(5, 0b100)
    assert Subset(5, 0b101) != subsets._subset(6, 0b101)


@pytest.mark.parametrize("name", list(VALUES))
def test_equality_with_another_class_is_false(name):
    value = VALUES[name]
    others = [fields(value), list(fields(value)), None, 0, *(v for other, v in VALUES.items() if other != name)]
    for other in others:
        assert not value == other and value != other
        assert not other == value and other != value


@pytest.mark.parametrize("name", FROZEN)
def test_every_field_is_read_only(name):
    value = VALUES[name]
    before = fields(value)
    for field in type(value).__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert fields(value) == before


def test_a_report_is_mutable_and_unhashable():
    rep = report()
    rep.mismatches = 0
    rep.check_failures["closure"] = 2
    assert (rep.mismatches, rep.check_failures) == (0, {"oracle": 1, "closure": 2})
    assert rep != report()
    del rep.first_failure
    assert not hasattr(rep, "first_failure")
    with pytest.raises(TypeError, match="unhashable"):
        hash(report())


def test_keyword_construction_takes_the_field_names():
    rows = TRACE.rows
    row = rows[1]
    assert Subset(n=5, mask=3) == Subset(5, 3)
    assert DecoratedPermutation(images=(2, 1), colors=()) == DecoratedPermutation((2, 1), ())
    assert GrassmannNecklace(entries=NECKLACE.entries) == NECKLACE
    assert NecklaceViolation(index=1, clause="step", detail="x") == NecklaceViolation(1, "step", "x")
    assert BasisFamily(n=2, k=1, bases=frozenset({Subset.of(2, [1])})) == BasisFamily.of(2, [[1]])
    assert MinorResult(perm=P, degenerate=False) == MinorResult(P, False)
    assert SquareRow(a=row.a, entry=row.entry, minor_entry=row.minor_entry, image=row.image,
                     minor_image=row.minor_image, swap=row.swap, case=row.case) == row
    assert MinorTrace(kind=TRACE.kind, j=TRACE.j, source=TRACE.source, result=TRACE.result, rows=rows) == TRACE
    assert VerificationReport(*fields(report())) == report()


@pytest.mark.parametrize("name", list(VALUES))
@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
def test_copies_round_trip(name, how):
    value = VALUES[name]
    twin = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "deepcopy": copy.deepcopy, "copy": copy.copy}[how](value)
    assert type(twin) is type(value)
    assert twin == value and repr(twin) == repr(value)
    if name in FROZEN:
        assert hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            twin.extra = 1


def test_a_necklace_copies_with_its_entries_read():
    necklace = necklace_of(parse_perm("3,1,2"))
    entries = necklace.entries  # cached in the instance on first read
    for twin in (pickle.loads(pickle.dumps(necklace)), copy.deepcopy(necklace)):
        assert twin == necklace and hash(twin) == hash(necklace)
        assert twin.entries == entries and twin.masks == necklace.masks
        assert twin.entry(2) == necklace.entry(2)


def reference_bases(p):
    """The bases of p's positroid, Subset by Subset: the k-subsets Gale-above every necklace entry."""
    necklace = necklace_of(p)
    n = necklace.n
    subsets = map(partial(Subset.of, n), combinations(range(1, n + 1), necklace.k))
    return frozenset(h for h in subsets if all(gale_leq(necklace.entry(t), h, t) for t in range(1, n + 1)))


@pytest.mark.parametrize("text", ["6,1,4,8,2,7,3,5", "1-,2+,4,3", "2,3,1", "3,4,1,2", "1-", "2,1,3+,5,4"])
def test_a_family_built_four_ways_is_one_value(text):
    p = parse_perm(text)
    bases = reference_bases(p)
    n, k = p.n, len(next(iter(bases)))
    ordered = sorted(bases, key=lambda s: s.members)
    members = [list(s.members) for s in ordered]
    built = [
        BasisFamily(n, k, bases),
        BasisFamily.of(n, [list(s) for s in bases]),
        bases_of(necklace_of(p)),
        parse_bases(";".join(",".join(map(str, m)) for m in members), n),
    ]
    others = [h for h in map(partial(Subset.of, n), combinations(range(1, n + 1), k)) if h not in bases]
    for family in built:
        assert family == built[0] and not family != built[0] and hash(family) == hash(built[0])
        assert repr(family) == f"BasisFamily.of({n}, {members})"
        assert format_bases(family) == ";".join(",".join(map(str, m)) for m in members)
        assert bases_to_obj(family) == {"n": n, "k": k, "bases": members}
        assert (family.n, family.k, family.bases, len(family)) == (n, k, bases, len(bases))
        assert list(family) == family.sorted_bases() == ordered
        assert all(h in family for h in bases) and not any(h in family for h in others)
        # only a Subset on the family's ground set is a member; any other value, an unhashable one too, is not
        assert Subset.of(n + 1, ordered[0].members) not in family
        assert ordered[0].members not in family and ordered[0].mask not in family and None not in family
        assert [1] not in family
