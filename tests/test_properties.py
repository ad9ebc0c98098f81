"""Randomized properties over decorated permutations and subsets."""

import pickle
import re

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from positroids import (
    BasisFamily,
    DecoratedPermutation,
    GrassmannNecklace,
    InvalidNecklaceError,
    MinorKind,
    MinorTrace,
    NecklaceViolation,
    PreconditionError,
    Subset,
    ValidationError,
    apply_minor,
    bases_of,
    contract,
    contract_necklace,
    classify_square,
    contraction_swap,
    cyclic_lt,
    dual,
    enumerate_decorated_perms,
    format_necklace,
    format_perm,
    format_subset,
    gale_extremum,
    gale_leq,
    in_cyclic_interval,
    is_degenerate,
    is_positroid,
    loop_coloop_status,
    necklace_of,
    necklace_violations,
    oracle_contract,
    oracle_delete,
    parse_bases,
    parse_necklace,
    parse_perm,
    parse_subset,
    perm_of,
    perm_to_obj,
    render_trace,
    restrict,
    restrict_necklace,
    restriction_swap,
    succ,
    trace_minor,
    trace_to_obj,
)
from positroids.core import _necklace
from positroids.subsets import _subset
from positroids.minors import _cells


@st.composite
def decorated_perms(draw, max_n=8, min_n=1):
    n = draw(st.integers(min_n, max_n))
    images = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = {}
    for i in range(1, n + 1):
        if images[i - 1] == i:
            colors[i] = draw(st.sampled_from((-1, 1)))
    return DecoratedPermutation.of(images, colors)


@st.composite
def equal_size_subsets(draw, count, max_n=12):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    universe = list(range(1, n + 1))
    picks = [Subset.of(n, draw(st.permutations(universe))[:k]) for _ in range(count)]
    t = draw(st.integers(1, n))
    return n, t, picks


@st.composite
def masks_with_start(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(1, n))


# Plain references for the mask formulas, written from the definitions.


def shifted_extremum(members, t, n, direction):
    """Largest or smallest of the members in the order t < ... < n < 1 < ... < t-1."""
    return (max if direction == "max" else min)(members, key=lambda x: (x - t) % n)


def reference_necklace(p):
    """I_r: the i reading clockwise from r before their preimage, plus the -1 fixed points."""
    n = p.n
    inv = p.inverse()
    coloops = [i for i, c in p.colors if c == -1]
    entries = []
    for r in range(1, n + 1):
        early = [i for i in range(1, n + 1) if p.images[i - 1] != i and (i - r) % n < (inv[i - 1] - r) % n]
        entries.append(Subset.of(n, coloops + early))
    return tuple(entries)


def reference_contraction_swap(necklace, j, a):
    entry = necklace.entry(a)
    if j in entry:
        return j
    return shifted_extremum((entry - necklace.entry(j)).members, a, necklace.n, "max")


def reference_restriction_swap(necklace, j, a):
    entry = necklace.entry(a)
    if j not in entry:
        return j
    return shifted_extremum((necklace.entry(j + 1) - entry).members, a, necklace.n, "min")


def reference_case(p, necklace, j, a, kind):
    """Label of the square at a, written on cyclic_lt and in_cyclic_interval."""
    n = p.n
    inv_j = p.images.index(j) + 1
    t = succ(a, n)
    if kind is MinorKind.CONTRACTION:
        if a == j:
            return "Case1"
        if a == inv_j:
            return "Case3"
        if in_cyclic_interval(a, inv_j, j, n):
            return "Case2"
        if cyclic_lt(j, reference_contraction_swap(necklace, j, a), t, n):
            return "Case4a"
        if cyclic_lt(j, p.image(a), t, n):
            return "Case4b"
        return "Case4c"
    if a == j:
        return "R-start"
    if a == inv_j:
        return "R-end"
    if in_cyclic_interval(a, j, inv_j, n):
        return "R-pass"
    if reference_restriction_swap(necklace, j, t) == a:
        return "R-a"
    if cyclic_lt(p.image(a), j, a, n):
        return "R-b"
    return "R-c"


def necklace_minor(necklace, j, kind):
    """The necklace route of a minor, with j stripped from contraction's entries."""
    if kind is MinorKind.RESTRICTION:
        return restrict_necklace(necklace, j)
    return GrassmannNecklace(tuple(e.discard(j) for e in contract_necklace(necklace, j).entries))


@given(masks_with_start())
@settings(max_examples=300)
def test_gale_extremum_matches_members(case):
    n, mask, t = case
    d = Subset(n, mask)
    for direction in ("max", "min"):
        if mask == 0:
            with pytest.raises(PreconditionError):
                gale_extremum(d, t, direction)
        else:
            assert gale_extremum(d, t, direction) == shifted_extremum(d.members, t, n, direction)


@given(masks_with_start())
@settings(max_examples=200)
def test_unchecked_subset_equals_checked(case):
    n, mask, _ = case
    assert _subset(n, mask) == Subset(n, mask)
    assert hash(_subset(n, mask)) == hash(Subset(n, mask))
    with pytest.raises(ValidationError):
        Subset(n, mask | 1 << n)
    with pytest.raises(ValidationError):
        Subset(3, 8)


@given(decorated_perms(max_n=64))
@settings(max_examples=120, deadline=None)
def test_necklace_of_matches_the_definition(p):
    assert necklace_of(p).entries == reference_necklace(p)


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=120, deadline=None)
def test_swaps_match_subset_differences(p, data):
    necklace = necklace_of(p)
    j = data.draw(st.integers(1, p.n))
    status = loop_coloop_status(p, j)
    for a in range(1, p.n + 1):
        if status == "loop":
            with pytest.raises(PreconditionError):
                contraction_swap(necklace, j, a)
        else:
            assert contraction_swap(necklace, j, a) == reference_contraction_swap(necklace, j, a)
        if status == "coloop":
            with pytest.raises(PreconditionError):
                restriction_swap(necklace, j, a)
        else:
            assert restriction_swap(necklace, j, a) == reference_restriction_swap(necklace, j, a)


@given(decorated_perms(max_n=64, min_n=2))
@settings(max_examples=25, deadline=None)
def test_trace_rows_match_every_route(p):
    # every non-fixed j, both kinds: the one-pass trace against the routes one call each
    necklace = necklace_of(p)
    for j in (j for j in range(1, p.n + 1) if p.images[j - 1] != j):
        for kind in MinorKind:
            contracting = kind is MinorKind.CONTRACTION
            trace = trace_minor(p, j, kind)
            result = (contract if contracting else restrict)(p, j)
            minor = (contract_necklace if contracting else restrict_necklace)(necklace, j)
            swap = contraction_swap if contracting else restriction_swap
            reference_swap = reference_contraction_swap if contracting else reference_restriction_swap
            assert trace.result == result
            assert tuple(r.entry for r in trace.rows) == necklace.entries
            assert tuple(r.minor_entry for r in trace.rows) == minor.entries
            assert tuple(r.image for r in trace.rows) == p.images
            assert tuple(r.minor_image for r in trace.rows) == result.images
            for r in trace.rows:
                assert r.swap == swap(necklace, j, r.a) == reference_swap(necklace, j, r.a)
                label = reference_case(p, necklace, j, r.a, kind)
                assert r.case.value == label == classify_square(p, necklace, j, r.a, kind).value


@given(decorated_perms(max_n=64, min_n=2), st.data())
@settings(max_examples=120, deadline=None)
def test_minors_in_sequence_agree_on_both_routes(p, data):
    # two single-element minors at distinct elements, in every order of kinds
    j1 = data.draw(st.integers(1, p.n))
    j2 = data.draw(st.integers(1, p.n).filter(lambda j: j != j1))
    kinds = data.draw(st.tuples(st.sampled_from(MinorKind), st.sampled_from(MinorKind)))
    perm, necklace = p, necklace_of(p)
    for j, kind in zip((j1, j2), kinds):
        if is_degenerate(perm, j, kind):
            return
        perm = apply_minor(perm, j, kind).perm
        necklace = necklace_minor(necklace, j, kind)
    assert necklace_of(perm) == necklace


@given(decorated_perms(max_n=64))
@settings(max_examples=120, deadline=None)
def test_perm_necklace_round_trip(p):
    assert perm_of(necklace_of(p)) == p


@given(decorated_perms(max_n=64))
@settings(max_examples=120, deadline=None)
def test_necklace_of_is_always_valid(p):
    assert necklace_violations(necklace_of(p).entries) == []


@given(decorated_perms(max_n=64))
@settings(max_examples=120, deadline=None)
def test_dual_is_an_involution_trading_loops_and_coloops(p):
    q = dual(p)
    assert q == DecoratedPermutation.of(q.images, dict(q.colors))  # valid as built
    assert dual(q) == p
    for i in p.fixed_points:
        assert {loop_coloop_status(p, i), loop_coloop_status(q, i)} == {"loop", "coloop"}


@given(equal_size_subsets(2))
@settings(max_examples=150)
def test_gale_antisymmetry(case):
    _, t, (a, b) = case
    if gale_leq(a, b, t) and gale_leq(b, a, t):
        assert a == b
    assert gale_leq(a, a, t)


@given(equal_size_subsets(3))
@settings(max_examples=150)
def test_gale_transitivity(case):
    _, t, (a, b, c) = case
    if gale_leq(a, b, t) and gale_leq(b, c, t):
        assert gale_leq(a, c, t)


@given(equal_size_subsets(1))
@settings(max_examples=100)
def test_gale_extremum_bounds(case):
    n, t, (d,) = case
    if len(d) == 0:
        return
    hi = gale_extremum(d, t, "max")
    lo = gale_extremum(d, t, "min")
    assert hi in d and lo in d
    for x in d:
        assert (x - t) % n <= (hi - t) % n
        assert (lo - t) % n <= (x - t) % n


@given(decorated_perms(max_n=7), st.data())
@settings(max_examples=80, deadline=None)
def test_minors_match_oracle(p, data):
    j = data.draw(st.integers(1, p.n))
    kind = data.draw(st.sampled_from(MinorKind))
    family = bases_of(necklace_of(p))
    outcome = apply_minor(p, j, kind)
    if outcome.degenerate:
        assert outcome.perm == DecoratedPermutation.identity(p.n, 1)
        return
    if kind is MinorKind.CONTRACTION:
        expected = oracle_contract(family, j)
    else:
        expected = oracle_delete(family, j)
    assert bases_of(necklace_of(outcome.perm)).bases == expected.bases
    assert is_positroid(expected)


@given(decorated_perms(max_n=7), st.data())
@settings(max_examples=80, deadline=None)
def test_minor_rank_and_loop_structure(p, data):
    j = data.draw(st.integers(1, p.n))
    k = necklace_of(p).k
    if not is_degenerate(p, j, MinorKind.CONTRACTION):
        out = contract(p, j)
        assert loop_coloop_status(out, j) == "loop"
        assert necklace_of(out).k == k - 1
    if not is_degenerate(p, j, MinorKind.RESTRICTION):
        out = restrict(p, j)
        assert loop_coloop_status(out, j) == "loop"
        assert necklace_of(out).k == k


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=60, deadline=None)
def test_color_flip_recovers_contracted_necklace(p, data):
    j = data.draw(st.integers(1, p.n))
    if loop_coloop_status(p, j) == "loop":
        return
    flipped = contract(p, j).with_color(j, -1)
    assert necklace_of(flipped) == contract_necklace(necklace_of(p), j)


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=60, deadline=None)
def test_restriction_agrees_entrywise(p, data):
    j = data.draw(st.integers(1, p.n))
    if loop_coloop_status(p, j) == "coloop":
        return
    assert necklace_of(restrict(p, j)) == restrict_necklace(necklace_of(p), j)


@given(decorated_perms(max_n=64, min_n=2), st.data())
@settings(max_examples=120, deadline=None)
def test_restrict_is_its_route_through_the_dual(p, data):
    # restrict builds this value in one pass
    j = data.draw(st.sampled_from([i for i in range(1, p.n + 1) if p.images[i - 1] != i] or [None]))
    if j is None:
        return
    out = restrict(p, j)
    assert out == dual(contract(dual(p), j)).with_color(j, 1)
    assert out == DecoratedPermutation(out.images, out.colors)  # valid as built


@given(decorated_perms(max_n=6), st.data())
@settings(max_examples=40, deadline=None)
def test_minor_composition_matches_oracle(p, data):
    j1 = data.draw(st.integers(1, p.n))
    j2 = data.draw(st.integers(1, p.n))
    family = bases_of(necklace_of(p))
    first = apply_minor(p, j1, MinorKind.CONTRACTION)
    if first.degenerate:
        return
    second = apply_minor(first.perm, j2, MinorKind.RESTRICTION)
    if second.degenerate:
        return
    expected = oracle_delete(oracle_contract(family, j1), j2)
    assert bases_of(necklace_of(second.perm)).bases == expected.bases


# The mask-level text boundary against Subset-level references written here.


def reference_members(n, mask):
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def reference_violations(entries):
    """necklace_violations, clause by clause on Subset operations."""
    out = []
    n = entries[0].n
    for idx, e in enumerate(entries, start=1):
        if e.n != n:
            out.append(NecklaceViolation(idx, "shape", f"ground set n={e.n} differs from n={n}"))
    if out:
        return out
    if len(entries) != n:
        return [NecklaceViolation(0, "shape", f"{len(entries)} entries for ground set of size {n}")]
    k = len(entries[0])
    for idx, e in enumerate(entries, start=1):
        if len(e) != k:
            out.append(NecklaceViolation(idx, "size", f"size {len(e)} differs from size {k} of entry 1"))
    for i in range(1, n + 1):
        cur, nxt = entries[i - 1], entries[i % n]
        after = i % n + 1
        if i not in cur:
            if nxt != cur:
                out.append(NecklaceViolation(i, "step", f"{i} is absent from I_{i} but I_{after} != I_{i}"))
        elif not cur.discard(i).issubset(nxt):
            out.append(NecklaceViolation(i, "step", f"I_{after} loses more than element {i} from I_{i}"))
        elif len(nxt - cur.discard(i)) != 1:
            out.append(NecklaceViolation(i, "step", f"I_{after} must add exactly one element to I_{i} minus {i}"))
    return out


def reference_perm_of(entries):
    """perm_of one element at a time: the gained element of each step."""
    n = len(entries)
    images, colors = [], {}
    for i in range(1, n + 1):
        cur, nxt = entries[i - 1], entries[i % n]
        if i not in cur:
            images.append(i)
            colors[i] = 1
            continue
        gained = nxt - cur.discard(i)
        if len(gained) != 1:
            raise InvalidNecklaceError([NecklaceViolation(i, "step", "entry does not follow the step rule")])
        images.append(gained.members[0])
        if gained.members[0] == i:
            colors[i] = -1
    return DecoratedPermutation.of(images, colors)


def validate_reference(entries):
    bad = reference_violations(entries)
    if bad:
        raise InvalidNecklaceError(bad)
    return GrassmannNecklace(tuple(entries))


def outcome(fn, *args):
    """A result, or the type, message and violations of the error raised."""
    try:
        return fn(*args)
    except (ValidationError, TypeError) as err:
        return type(err), str(err), getattr(err, "violations", None)


@st.composite
def mutated_necklaces(draw, max_n=64, mixed=True):
    """A necklace with one entry changed by dropping, adding or moving one element.

    With `mixed`, now and then the changed entry moves to a ground set one
    larger.
    """
    p = draw(decorated_perms(max_n=max_n))
    n = p.n
    entries = list(necklace_of(p).entries)
    idx = draw(st.integers(0, n - 1))
    members = list(entries[idx].members)
    absent = [x for x in range(1, n + 1) if x not in members]
    moves = ["drop"] * bool(members) + ["add"] * bool(absent) + ["move"] * bool(members and absent)
    if moves:
        move = draw(st.sampled_from(moves))
        if move in ("drop", "move"):
            members.remove(draw(st.sampled_from(members)))
        if move in ("add", "move"):
            members.append(draw(st.sampled_from(absent)))
    ground = n + 1 if mixed and n < 64 and draw(st.integers(0, 9)) == 0 else n
    entries[idx] = Subset.of(ground, members)
    return entries


@given(masks_with_start())
@settings(max_examples=300)
def test_members_match_the_bit_loop(case):
    n, mask, _ = case
    assert Subset(n, mask).members == reference_members(n, mask)
    assert list(Subset(n, mask)) == list(reference_members(n, mask))
    assert Subset.full(n).members == tuple(range(1, n + 1))
    assert Subset(n, 1 << (n - 1)).members == (n,)
    check_text_forms(Subset(n, mask))


@given(decorated_perms(max_n=64))
@settings(max_examples=120, deadline=None)
def test_necklace_text_round_trip(p):
    necklace = necklace_of(p)
    text = format_necklace(necklace)
    assert text == ";".join(",".join(map(str, reference_members(p.n, e.mask))) for e in necklace.entries)
    assert parse_necklace(text) == necklace
    assert format_necklace(parse_necklace(text)) == text


def check_necklace_forms(x):
    """A necklace held as masks agrees with the same necklace built from Subsets."""
    assert [e.mask for e in x.entries] == list(x.masks)
    y = GrassmannNecklace(x.entries)
    assert y == x and hash(y) == hash(x)
    assert y.entries == x.entries and y.masks == x.masks
    assert (y.n, y.k, repr(y)) == (x.n, x.k, repr(x))
    assert all(y.entry(r) == x.entry(r) for r in range(-1, x.n + 2))
    assert parse_necklace(format_necklace(x)) == x


def minor_necklaces(x):
    """Every contraction and restriction necklace of x that is defined."""
    n = x.n
    for j in range(1, n + 1):
        if x.masks[j - 1] >> (j - 1) & 1:  # not a loop
            yield contract_necklace(x, j)
        if not x.masks[j % n] >> (j - 1) & 1:  # not a coloop
            yield restrict_necklace(x, j)


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=120, deadline=None)
def test_mask_and_subset_necklaces_agree(p, data):
    x = necklace_of(p)
    check_necklace_forms(x)
    assert pickle.loads(pickle.dumps(x)) == x
    assert pickle.loads(pickle.dumps(GrassmannNecklace(x.entries))) == x
    minors = list(minor_necklaces(x))
    if minors:
        check_necklace_forms(data.draw(st.sampled_from(minors)))


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_and_subset_necklaces_agree_exhaustively(n):
    for p in enumerate_decorated_perms(n):
        x = necklace_of(p)
        check_necklace_forms(x)
        for minor in minor_necklaces(x):
            check_necklace_forms(minor)


BAD_VALUES = st.one_of(
    st.integers(max_value=0),
    st.integers(min_value=65),
    st.sampled_from((1.0, "1", None, 2.5, (1,))),
)


@given(st.integers(1, 64), st.data())
@settings(max_examples=200)
def test_subset_of_names_the_first_bad_element(n, data):
    good = data.draw(st.lists(st.integers(1, n), max_size=8))
    bad = data.draw(st.lists(st.one_of(BAD_VALUES, st.integers(n + 1, n + 3)), min_size=1, max_size=3))
    elements = data.draw(st.permutations(good + bad))
    first = next(e for e in elements if not (isinstance(e, int) and 1 <= e <= n))
    with pytest.raises(ValidationError) as err:
        Subset.of(n, elements)
    assert str(err.value) == f"element {first!r} is out of range 1..{n}"
    assert Subset.of(n, good + [True]) == Subset.of(n, good + [1])  # True is the int 1


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=200, deadline=None)
def test_constructor_names_the_first_bad_image(p, data):
    n = p.n
    images = list(p.images)
    positions = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    for pos in positions:
        images[pos - 1] = data.draw(st.one_of(BAD_VALUES, st.integers(n + 1, n + 3)))
    pos = min(positions)
    with pytest.raises(ValidationError) as err:
        DecoratedPermutation(tuple(images), p.colors)
    assert str(err.value) == f"image at position {pos} {images[pos - 1]!r} is out of range 1..{n}"


@given(mutated_necklaces())
@settings(max_examples=300, deadline=None)
def test_violations_match_the_subset_level_check(entries):
    assert necklace_violations(entries) == reference_violations(entries)
    assert outcome(GrassmannNecklace, tuple(entries)) == outcome(validate_reference, entries)


@given(mutated_necklaces(mixed=False))
@settings(max_examples=300, deadline=None)
def test_perm_of_matches_the_element_level_reading(entries):
    # an unchecked necklace reaches perm_of's own step check; a necklace on
    # mixed ground sets cannot be built by the public constructor
    assert outcome(perm_of, _necklace(tuple(e.mask for e in entries))) == outcome(reference_perm_of, entries)


def passes_gale_bounds(necklace, h):
    """H is a basis of the positroid exactly when I_t <=_t H for every t."""
    return all(gale_leq(entry, h, t) for t, entry in enumerate(necklace.entries, start=1))


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=30, deadline=None)
def test_dual_complement_law_by_gale_bounds(p, data):
    n = p.n
    full = (1 << n) - 1
    necklace, dual_necklace = necklace_of(p), necklace_of(dual(p))

    def complement(h):
        return Subset(n, full ^ h.mask)

    # every entry is a basis of p, so its complement is one of the dual
    for entry in necklace.entries:
        assert passes_gale_bounds(dual_necklace, complement(entry))
    # single-exchange neighbours of the entries and random subsets of size k
    candidates = []
    for _ in range(6):
        entry = data.draw(st.sampled_from(necklace.entries))
        inside, outside = entry.members, complement(entry).members
        if inside and outside:
            x, y = data.draw(st.sampled_from(inside)), data.draw(st.sampled_from(outside))
            candidates.append(entry.discard(x).add(y))
        chosen = data.draw(st.permutations(range(1, n + 1)))[: necklace.k]
        candidates.append(Subset.of(n, chosen))
    for h in candidates:
        assert passes_gale_bounds(necklace, h) == passes_gale_bounds(dual_necklace, complement(h))


# The text boundary.  The parsers read canonical tokens by table and send
# everything else down the int() path; these references are that path alone.

FUZZ_TOKENS = ("1", "2", "9", "10", "64", "65", "0", "-1", "03", "+3", "1_0", "x", "1.0", "")


def reference_parse_subset(text, n):
    s = "".join(text.split())
    if not s:
        return Subset.empty(n)
    try:
        elements = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValidationError(f"subset {text!r} has a non-integer entry") from None
    return Subset.of(n, elements)


def reference_parse_necklace(text):
    parts = "".join(text.split()).split(";")
    n = len(parts)
    if n > 64:
        raise ValidationError(f"{n} entries exceed the ground set cap of 64")
    entries = []
    for idx, part in enumerate(parts, start=1):
        try:
            entries.append(reference_parse_subset(part, n))
        except ValidationError as e:
            raise ValidationError(f"entry {idx}: {e}") from None
    return GrassmannNecklace(tuple(entries))


def reference_parse_bases(text, n=None):
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty basis family")
    if n is None:
        elements = []
        for tok in s.replace(";", ",").split(","):
            if tok:
                try:
                    elements.append(int(tok))
                except ValueError:
                    raise ValidationError(f"basis list has a non-integer entry {tok!r}") from None
        if not elements:
            raise ValidationError("cannot infer the ground set size; pass n explicitly")
        if max(elements) < 1:
            raise ValidationError(f"element {elements[0]} is out of range: elements start at 1")
        n = max(elements)
    return BasisFamily.of(n, [reference_parse_subset(part, n) for part in s.split(";")])


@st.composite
def fuzz_texts(draw, max_parts=4):
    """Subsets of fuzz tokens joined by ';', with a few spaces put inside."""
    parts = draw(st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4), min_size=1, max_size=max_parts))
    text = ";".join(",".join(tokens) for tokens in parts)
    for at in sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)), reverse=True):
        text = text[:at] + " " + text[at:]
    return text


@given(fuzz_texts(max_parts=1), st.integers(1, 66))
@settings(max_examples=500, deadline=None)
def test_parse_subset_matches_the_int_path(text, n):
    assert outcome(parse_subset, text, n) == outcome(reference_parse_subset, text, n)


@given(fuzz_texts(max_parts=5), st.integers(1, 66))
@settings(max_examples=500, deadline=None)
def test_parse_necklace_and_bases_match_the_int_path(text, n):
    assert outcome(parse_necklace, text) == outcome(reference_parse_necklace, text)
    assert outcome(parse_bases, text) == outcome(reference_parse_bases, text)
    assert outcome(parse_bases, text, n) == outcome(reference_parse_bases, text, n)


@given(decorated_perms(max_n=64), st.data())
@settings(max_examples=200, deadline=None)
def test_parse_of_a_mutated_necklace_matches_the_int_path(p, data):
    tokens = format_necklace(necklace_of(p)).replace(";", ",;,").split(",")
    at = data.draw(st.integers(0, len(tokens) - 1))
    if tokens[at] != ";":
        tokens[at] = data.draw(st.sampled_from(FUZZ_TOKENS + (str(p.n), str(p.n + 1))))
    text = ",".join(tokens).replace(",;,", ";")
    assert outcome(parse_necklace, text) == outcome(reference_parse_necklace, text)
    bases_text = text.replace(";", "; ", 3)
    assert outcome(parse_bases, bases_text) == outcome(reference_parse_bases, bases_text)
    assert outcome(parse_bases, bases_text, p.n) == outcome(reference_parse_bases, bases_text, p.n)


@pytest.mark.parametrize(
    "text, n",
    [("x", 66), ("1", 66), ("65", 66), ("65", 64), ("1,1", 3), ("03", 3), ("+3", 3), ("1_0", 10), (";" * 64, 1),
     ("0", 5), ("-1;0", 5), ("1,,2", 2), ("1.0", 2)],
)
def test_parse_errors_keep_their_order(text, n):
    # e.g. a non-integer entry is reported before a ground set over the cap
    assert outcome(parse_subset, text, n) == outcome(reference_parse_subset, text, n)
    assert outcome(parse_necklace, text) == outcome(reference_parse_necklace, text)
    assert outcome(parse_bases, text) == outcome(reference_parse_bases, text)
    assert outcome(parse_bases, text, n) == outcome(reference_parse_bases, text, n)


def check_text_forms(s):
    members = reference_members(s.n, s.mask)
    assert s.members == members
    assert list(s) == list(members)
    assert format_subset(s) == ",".join(map(str, members))
    assert str(s) == "{" + ",".join(map(str, members)) + "}"
    assert repr(s) == f"Subset.of({s.n}, {list(members)})"
    assert _cells([s.mask], s.n) == [("" if s.n <= 9 else ",").join(map(str, members)) if members else "{}"]
    assert parse_subset(format_subset(s), s.n) == s


# the hexadecimal digits (4 elements) and bytes (8 elements) of a mask end at 4, 8, 12, ... and 8, 16, ...
@pytest.mark.parametrize("n", [4, 8, 9, 10, 16, 17, 56, 57, 63, 64])
def test_text_forms_at_chunk_edges(n):
    edges = [e for e in (1, 4, 5, 8, 9, 10, 12, 13, 16, 17, 56, 57, 60, 61, 63, 64) if e <= n]
    masks = [0, (1 << n) - 1, sum(1 << (e - 1) for e in edges), (1 << n) - 1 ^ sum(1 << (e - 1) for e in edges)]
    masks += [1 << (e - 1) for e in edges]
    masks += [(1 << e) - 1 for e in edges]  # every element up to an edge
    for mask in masks:
        check_text_forms(Subset(n, mask))


# The trace diagram and JSON form as they were written before a trace held
# columns: cell by cell from the rows, each member read off the mask bit by bit.


def reference_cell(s):
    members = reference_members(s.n, s.mask)
    if not members:
        return "{}"
    # below 10 every element is one digit, so the cell drops the commas
    return ("" if s.n <= 9 else ",").join(map(str, members))


def reference_render(trace):
    rows = trace.rows
    tops = [reference_cell(r.entry) for r in rows]
    bots = [reference_cell(r.minor_entry) for r in rows]
    top_arr = [f"-{r.image}->" for r in rows]
    bot_arr = [f"-{r.minor_image}->" for r in rows]
    swaps = [str(r.swap) for r in rows]
    cases = [r.case.value for r in rows]
    widths = [max(len(t), len(b), len(s), len(c)) for t, b, s, c in zip(tops, bots, swaps, cases)]
    arrows = [max(len(t), len(b)) for t, b in zip(top_arr, bot_arr)]

    def line(cells, arr=None):
        parts = []
        for i, c in enumerate(cells):
            parts.append(c.center(widths[i]))
            parts.append((arr[i] if arr else "").center(arrows[i]))
        return " ".join(parts).rstrip()

    header = f"{trace.kind.value} at j={trace.j}: {format_perm(trace.source)} => {format_perm(trace.result)}"
    return "\n".join([header, line(tops, top_arr), line(swaps), line(bots, bot_arr), line(cases)])


def reference_trace_obj(trace):
    return {
        "kind": trace.kind.value,
        "j": trace.j,
        "source": perm_to_obj(trace.source),
        "result": perm_to_obj(trace.result),
        "rows": [
            {
                "a": r.a,
                "entry": list(reference_members(r.entry.n, r.entry.mask)),
                "minor_entry": list(reference_members(r.minor_entry.n, r.minor_entry.mask)),
                "image": r.image,
                "minor_image": r.minor_image,
                "swap": r.swap,
                "case": r.case.value,
            }
            for r in trace.rows
        ],
    }


@given(decorated_perms(max_n=64, min_n=2), st.sampled_from(MinorKind), st.data())
@settings(max_examples=150, deadline=None)
def test_trace_forms_match_the_cell_by_cell_reference(p, kind, data):
    moved = [i for i in range(1, p.n + 1) if p.images[i - 1] != i]
    assume(moved)
    trace = trace_minor(p, data.draw(st.sampled_from(moved)), kind)
    text = render_trace(trace)
    assert text == reference_render(trace)
    assert trace_to_obj(trace) == reference_trace_obj(trace)
    # the public constructor reads the same columns off the rows
    rebuilt = MinorTrace(trace.kind, trace.j, trace.source, trace.result, trace.rows)
    assert rebuilt == trace and hash(rebuilt) == hash(trace)
    assert render_trace(rebuilt) == text
    assert trace_to_obj(rebuilt) == trace_to_obj(trace)


# parse_perm reads canonical tokens through a table in one pass and sends
# anything else to a token-by-token loop; the reference is that loop alone.
PERM_FUZZ_TOKENS = ("1", "2", "9", "10", "64", "65", "0", "03", "+3", "3+", "3-", "1_0", "x", "")


def reference_parse_perm(text):
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty decorated permutation")
    toks = s.split(",")
    n = len(toks)
    if n > 64:
        raise ValidationError(f"{n} images exceed the ground set cap of 64")
    images, colors, seen = [], {}, {}
    for pos, tok in enumerate(toks, start=1):
        m = re.match(r"(\d+)([+-])?\Z", tok)
        if not m:
            raise ValidationError(f"token {pos}: {tok!r} is not an image with an optional sign")
        v, sign = int(m.group(1)), m.group(2)
        if not 1 <= v <= n:
            raise ValidationError(f"token {pos}: image {v} is out of range 1..{n}")
        if v in seen:
            raise ValidationError(f"token {pos}: image {v} already used at token {seen[v]}")
        seen[v] = pos
        if v == pos:
            if sign is None:
                raise ValidationError(f"token {pos}: fixed point {v} needs a + or - sign")
            colors[pos] = 1 if sign == "+" else -1
        elif sign is not None:
            raise ValidationError(f"token {pos}: sign on {v}, which is not a fixed point here")
        images.append(v)
    return DecoratedPermutation.of(images, colors)


@st.composite
def perm_texts(draw):
    """A permutation's text with up to two tokens changed, or fuzz tokens alone (up to 8, or 65), with spaces inside.

    A changed token is a fuzz token, another token of the text, or the same
    image with its sign dropped, added or flipped.
    """
    shape = draw(st.sampled_from(("perm",) * 4 + ("fuzz",) * 3 + ("long",)))
    if shape == "perm":
        tokens = format_perm(draw(decorated_perms(max_n=64))).split(",")
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(tokens) - 1))
            image = tokens[at].rstrip("+-")
            tokens[at] = draw(st.sampled_from(PERM_FUZZ_TOKENS + (draw(st.sampled_from(tokens)), image,
                                                                  image + "+", image + "-")))
    else:
        size = 65 if shape == "long" else draw(st.integers(1, 8))
        tokens = draw(st.lists(st.sampled_from(PERM_FUZZ_TOKENS), min_size=size, max_size=size))
    text = ",".join(tokens)
    for at in sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)), reverse=True):
        text = text[:at] + " " + text[at:]
    return text


@given(perm_texts())
@settings(max_examples=600, deadline=None)
def test_parse_perm_matches_the_token_loop(text):
    assert outcome(parse_perm, text) == outcome(reference_parse_perm, text)
