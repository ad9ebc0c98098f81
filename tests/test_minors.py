"""Contraction and restriction: walks, necklace formulas, traces, conventions."""

import json

import pytest

import positroids.core
import positroids.minors
from positroids import (
    CaseLabel,
    DecoratedPermutation,
    MinorKind,
    PreconditionError,
    ValidationError,
    apply_minor,
    bases_of,
    classify_square,
    contract,
    contract_necklace,
    contraction_swap,
    dual,
    enumerate_decorated_perms,
    format_necklace,
    format_perm,
    is_degenerate,
    necklace_of,
    necklace_step,
    oracle_contract,
    oracle_delete,
    parse_perm,
    render_trace,
    restrict,
    restrict_necklace,
    restriction_swap,
    trace_minor,
    trace_to_obj,
    validate_necklace,
)

PERM = "6,1,4,8,2,7,3,5"
PERM_NECKLACE = "1,2,3,5;2,3,5,6;1,3,5,6;1,4,5,6;1,5,6,8;1,2,6,8;1,2,7,8;1,2,3,8"

CONTRACT_J = 3
CONTRACT_K = "1,2,3,5;2,3,5,6;1,3,5,6;1,3,5,6;1,3,5,6;1,3,6,8;1,3,7,8;1,2,3,8"
CONTRACT_SWAPS = [3, 3, 3, 4, 8, 2, 2, 3]
CONTRACT_RESULT = "6,1,3+,4+,8,7,2,5"
CONTRACT_CASES = ["Case2", "Case2", "Case1", "Case4a", "Case4c", "Case4c", "Case3", "Case2"]

RESTRICT_J = 5
RESTRICT_K = "1,2,3,6;2,3,6,8;1,3,6,8;1,4,6,8;1,2,6,8;1,2,6,8;1,2,7,8;1,2,3,8"
RESTRICT_SWAPS = [6, 8, 8, 8, 2, 5, 5, 5]
RESTRICT_RESULT = "8,1,4,2,5+,7,3,6"
RESTRICT_CASES = ["R-c", "R-c", "R-b", "R-c", "R-start", "R-pass", "R-pass", "R-end"]


@pytest.fixture(scope="module")
def perm():
    return parse_perm(PERM)


@pytest.fixture(scope="module")
def necklace(perm):
    return necklace_of(perm)


def test_source_necklace(necklace):
    assert format_necklace(necklace) == PERM_NECKLACE


class TestSwaps:
    def test_contraction_swap_row(self, necklace):
        assert [contraction_swap(necklace, CONTRACT_J, a) for a in range(1, 9)] == CONTRACT_SWAPS

    def test_restriction_swap_row(self, necklace):
        assert [restriction_swap(necklace, RESTRICT_J, a) for a in range(1, 9)] == RESTRICT_SWAPS

    def test_contraction_swap_is_j_inside(self, necklace):
        # wherever j already sits in the entry, nothing moves
        for a in range(1, 9):
            if CONTRACT_J in necklace.entry(a):
                assert contraction_swap(necklace, CONTRACT_J, a) == CONTRACT_J

    def test_restriction_swap_is_j_outside(self, necklace):
        for a in range(1, 9):
            if RESTRICT_J not in necklace.entry(a):
                assert restriction_swap(necklace, RESTRICT_J, a) == RESTRICT_J

    def test_public_swaps_build_no_subset(self, perm, necklace, monkeypatch):
        # one swap or label reads the swap list only: no minor necklace, and no
        # Subset anywhere, since a necklace holds masks
        def no_subset(n, mask):
            raise AssertionError("a swap call built a Subset")

        monkeypatch.setattr(positroids.core, "_subset", no_subset)
        assert [contraction_swap(necklace, CONTRACT_J, a) for a in range(1, 9)] == CONTRACT_SWAPS
        assert [restriction_swap(necklace, RESTRICT_J, a) for a in range(1, 9)] == RESTRICT_SWAPS
        assert [classify_square(perm, necklace, CONTRACT_J, a).value for a in range(1, 9)] == CONTRACT_CASES
        labels = [classify_square(perm, necklace, RESTRICT_J, a, MinorKind.RESTRICTION).value for a in range(1, 9)]
        assert labels == RESTRICT_CASES

    def test_swap_preconditions(self):
        loop = necklace_of(DecoratedPermutation.of((1, 3, 2), {1: 1}))
        with pytest.raises(PreconditionError):
            contraction_swap(loop, 1, 2)
        coloop = necklace_of(DecoratedPermutation.of((1, 3, 2), {1: -1}))
        with pytest.raises(PreconditionError):
            restriction_swap(coloop, 1, 2)


class TestNecklaceMinors:
    def test_contract_necklace_golden(self, necklace):
        k = contract_necklace(necklace, CONTRACT_J)
        assert format_necklace(k) == CONTRACT_K
        validate_necklace(k.entries)
        assert all(CONTRACT_J in e for e in k.entries)

    def test_restrict_necklace_golden(self, necklace):
        k = restrict_necklace(necklace, RESTRICT_J)
        assert format_necklace(k) == RESTRICT_K
        validate_necklace(k.entries)
        assert all(RESTRICT_J not in e for e in k.entries)

    def test_degenerate_inputs_rejected(self):
        loop = necklace_of(DecoratedPermutation.of((1, 3, 2), {1: 1}))
        with pytest.raises(PreconditionError):
            contract_necklace(loop, 1)
        coloop = necklace_of(DecoratedPermutation.of((1, 3, 2), {1: -1}))
        with pytest.raises(PreconditionError):
            restrict_necklace(coloop, 1)

    def test_routes_agree_on_golden(self, perm, necklace):
        # necklace of the contracted permutation = contracted necklace minus j
        k = contract_necklace(necklace, CONTRACT_J)
        dropped = [e.discard(CONTRACT_J) for e in k.entries]
        assert list(necklace_of(contract(perm, CONTRACT_J)).entries) == dropped
        # restriction is even more direct
        assert necklace_of(restrict(perm, RESTRICT_J)) == restrict_necklace(necklace, RESTRICT_J)


class TestPermMinors:
    def test_contract_golden(self, perm):
        out = contract(perm, CONTRACT_J)
        assert format_perm(out) == CONTRACT_RESULT
        assert out.images == (6, 1, 3, 4, 8, 7, 2, 5)
        assert out.color(3) == 1 and out.color(4) == 1

    def test_restrict_golden(self, perm):
        out = restrict(perm, RESTRICT_J)
        assert format_perm(out) == RESTRICT_RESULT
        assert out.color(5) == 1

    def test_two_element_swap(self):
        # the smallest case where restriction must create a coloop
        p = parse_perm("2,1")
        assert format_perm(contract(p, 1)) == "1+,2+"
        assert format_perm(restrict(p, 1)) == "1+,2-"
        assert format_perm(contract(p, 2)) == "1+,2+"
        assert format_perm(restrict(p, 2)) == "1-,2+"

    def test_walk_without_a_preimage_of_j_ends(self):
        # images built unchecked, with no position mapping to j: the walk
        # would go round looking for the preimage of j
        with pytest.raises(ValidationError) as err:
            contract(positroids.core._perm((2, 2, 1), ()), 3)
        assert str(err.value) == "the walk from 3 met no preimage of 3 in 2 positions"

    def test_contract_coloop_recolors_only(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: -1})
        out = contract(p, 1)
        assert out == p.with_color(1, 1)
        assert not is_degenerate(p, 1, MinorKind.CONTRACTION)

    def test_contract_loop_is_degenerate(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: 1})
        assert contract(p, 1) == DecoratedPermutation.identity(3, 1)
        assert is_degenerate(p, 1, MinorKind.CONTRACTION)

    def test_restrict_loop_is_noop(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: 1})
        assert restrict(p, 1) == p
        assert not is_degenerate(p, 1, MinorKind.RESTRICTION)

    def test_restrict_coloop_is_degenerate(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: -1})
        assert restrict(p, 1) == DecoratedPermutation.identity(3, 1)
        assert is_degenerate(p, 1, MinorKind.RESTRICTION)

    def test_apply_minor_flags(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: 1})
        out = apply_minor(p, 1, MinorKind.CONTRACTION)
        assert out.degenerate and out.perm == DecoratedPermutation.identity(3, 1)
        out = apply_minor(p, 1, MinorKind.RESTRICTION)
        assert not out.degenerate and out.perm == p
        out = apply_minor(p, 2, MinorKind.CONTRACTION)
        assert not out.degenerate

    def test_apply_minor_rejects_a_kind_that_is_not_a_minor_kind(self, perm):
        for kind in ("contraction", None):
            with pytest.raises(ValidationError, match="kind must be a MinorKind"):
                apply_minor(perm, CONTRACT_J, kind)

    def test_is_degenerate_rejects_a_kind_that_is_not_a_minor_kind(self):
        with pytest.raises(ValidationError, match="kind must be a MinorKind"):
            is_degenerate(parse_perm("1+,2+"), 1, "contraction")

    def test_minor_turns_j_into_loop(self, perm):
        for j in range(1, 9):
            for op in (contract, restrict):
                out = op(perm, j)
                assert out.image(j) == j and out.color(j) == 1


class TestRestrictRoute:
    """restrict builds in one pass the value of its documented route through the dual."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_pass_matches_the_route_through_the_dual(self, n):
        for p in enumerate_decorated_perms(n):
            for j in range(1, n + 1):
                if p.images[j - 1] != j:
                    out = restrict(p, j)
                    assert out == dual(contract(dual(p), j)).with_color(j, 1)
                    assert out == DecoratedPermutation(out.images, out.colors)  # valid as built

    def test_a_walk_that_leaves_j_unfixed_is_reported(self, monkeypatch):
        # restrict recolours j after the walk through the dual, so a walk that
        # does not fix j raises rather than returning a wrong value
        monkeypatch.setattr(positroids.minors, "contract", lambda p, j: p)
        with pytest.raises(ValidationError) as err:
            restrict(parse_perm(PERM), 3)
        assert str(err.value) == "3 is not a fixed point"

    @pytest.mark.parametrize("kind", list(MinorKind))
    def test_degenerate_instances_give_the_all_loop_identity(self, kind):
        op = contract if kind is MinorKind.CONTRACTION else restrict
        for n in range(1, 7):
            identity = DecoratedPermutation.identity(n, 1)
            seen = 0
            for p in enumerate_decorated_perms(n):
                for j in p.fixed_points:
                    if is_degenerate(p, j, kind):
                        assert op(p, j) == identity
                        seen += 1
            assert seen > 0


class TestClassification:
    def test_contraction_cases_golden(self, perm, necklace):
        got = [classify_square(perm, necklace, CONTRACT_J, a).value for a in range(1, 9)]
        assert got == CONTRACT_CASES

    def test_restriction_cases_golden(self, perm, necklace):
        got = [
            classify_square(perm, necklace, RESTRICT_J, a, MinorKind.RESTRICTION).value
            for a in range(1, 9)
        ]
        assert got == RESTRICT_CASES

    def test_default_kind_is_contraction(self, perm, necklace):
        assert classify_square(perm, necklace, 3, 4) is CaseLabel.CASE4A

    def test_fixed_j_rejected(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: 1})
        with pytest.raises(PreconditionError):
            classify_square(p, necklace_of(p), 1, 2)

    def test_kind_that_is_not_a_minor_kind_rejected(self, perm, necklace):
        with pytest.raises(ValidationError, match="kind must be a MinorKind"):
            classify_square(perm, necklace, CONTRACT_J, 4, "contraction")

    def test_necklace_of_another_size_rejected(self, perm):
        small = necklace_of(DecoratedPermutation.of((2, 3, 1)))
        with pytest.raises(ValidationError, match="the necklace has 3 entries, expected 8"):
            classify_square(perm, small, CONTRACT_J, 1)

    def test_necklace_of_another_perm_rejected(self):
        # the same size as p's own necklace; read as p's, it labelled this square R-a
        p = parse_perm("1-,2-,4,3")
        assert classify_square(p, necklace_of(p), 3, 2, MinorKind.RESTRICTION) is CaseLabel.R_B
        with pytest.raises(ValidationError) as err:
            classify_square(p, necklace_of(parse_perm("1-,3,2,4-")), 3, 2, MinorKind.RESTRICTION)
        assert str(err.value) == "the necklace 1,2,4;1,2,4;1,3,4;1,2,4 is not the necklace of 1-,2-,4,3"

    def test_every_other_necklace_of_the_same_size_rejected(self):
        perms = list(enumerate_decorated_perms(4))
        for p in perms:
            moved = [j for j in range(1, 5) if p.images[j - 1] != j]
            if not moved:
                continue
            for q in perms:
                if q == p:
                    continue
                for kind in MinorKind:
                    with pytest.raises(ValidationError, match="is not the necklace of"):
                        classify_square(p, necklace_of(q), moved[0], 1, kind)


class TestTraces:
    def test_contraction_trace_rows(self, perm):
        trace = trace_minor(perm, CONTRACT_J, MinorKind.CONTRACTION)
        assert trace.j == CONTRACT_J and trace.kind is MinorKind.CONTRACTION
        assert format_perm(trace.result) == CONTRACT_RESULT
        assert ";".join(",".join(map(str, r.entry.members)) for r in trace.rows) == PERM_NECKLACE
        assert ";".join(",".join(map(str, r.minor_entry.members)) for r in trace.rows) == CONTRACT_K
        assert [r.swap for r in trace.rows] == CONTRACT_SWAPS
        assert [r.image for r in trace.rows] == list(perm.images)
        assert [r.minor_image for r in trace.rows] == list(trace.result.images)
        assert [r.case.value for r in trace.rows] == CONTRACT_CASES

    def test_restriction_trace_rows(self, perm):
        trace = trace_minor(perm, RESTRICT_J, MinorKind.RESTRICTION)
        assert format_perm(trace.result) == RESTRICT_RESULT
        assert ";".join(",".join(map(str, r.minor_entry.members)) for r in trace.rows) == RESTRICT_K
        assert [r.swap for r in trace.rows] == RESTRICT_SWAPS
        assert [r.case.value for r in trace.rows] == RESTRICT_CASES

    def test_rows_satisfy_step_rule(self, perm):
        for kind in MinorKind:
            j = CONTRACT_J if kind is MinorKind.CONTRACTION else RESTRICT_J
            trace = trace_minor(perm, j, kind)
            rows = trace.rows
            for a in range(8):
                nxt = rows[(a + 1) % 8]
                assert necklace_step(rows[a].entry, a + 1, rows[a].image) == nxt.entry
                assert necklace_step(rows[a].minor_entry, a + 1, rows[a].minor_image) == nxt.minor_entry

    def test_render_contains_all_rows(self, perm):
        text = render_trace(trace_minor(perm, CONTRACT_J, MinorKind.CONTRACTION))
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("contraction at j=3:")
        assert CONTRACT_RESULT in lines[0]
        assert "1235" in lines[1] and "-6->" in lines[1]
        assert "Case4a" in lines[4]

    def test_trace_to_obj(self, perm):
        obj = trace_to_obj(trace_minor(perm, RESTRICT_J, MinorKind.RESTRICTION))
        assert obj["kind"] == "restriction" and obj["j"] == RESTRICT_J
        assert obj["result"]["perm"] == [8, 1, 4, 2, 5, 7, 3, 6]
        assert obj["rows"][0] == {
            "a": 1,
            "entry": [1, 2, 3, 5],
            "minor_entry": [1, 2, 3, 6],
            "image": 6,
            "minor_image": 8,
            "swap": 6,
            "case": "R-c",
        }

    def test_fixed_j_rejected(self):
        p = DecoratedPermutation.of((1, 3, 2), {1: -1})
        with pytest.raises(PreconditionError):
            trace_minor(p, 1, MinorKind.CONTRACTION)

    def test_kind_that_is_not_a_minor_kind_rejected(self, perm):
        with pytest.raises(ValidationError, match="kind must be a MinorKind"):
            trace_minor(perm, CONTRACT_J, "contraction")


def test_composed_minors_commute_with_oracle():
    # contract 3 then delete 5 along both routes
    p = parse_perm(PERM)
    family = bases_of(necklace_of(p))
    step1 = oracle_contract(family, 3)
    step2 = oracle_delete(step1, 5)
    walked = restrict(contract(p, 3), 5)
    assert bases_of(necklace_of(walked)).bases == step2.bases


def ints_only(value):
    """Whether every number inside a nested result is a plain int, not a bool."""
    if isinstance(value, (list, tuple)):
        return all(ints_only(v) for v in value)
    if isinstance(value, dict):
        return all(ints_only(k) and ints_only(v) for k, v in value.items())
    return type(value) is not bool


class TestTrueIsTheElementOne:
    """j = True is the element 1, as in Subset.of: every result equals j = 1's, byte for byte."""

    @pytest.mark.parametrize("text", ["2,1,3+", "1-,3,2", PERM, "2,3,1,4-", "1-,2+,4,3"])
    def test_perm_minors(self, text):
        p = parse_perm(text)
        for op in (contract, restrict):
            got, want = op(p, True), op(p, 1)
            assert got == want and format_perm(got) == format_perm(want)
            assert ints_only(got.images) and ints_only(got.colors)
        for kind in MinorKind:
            assert apply_minor(p, True, kind) == apply_minor(p, 1, kind)
            assert is_degenerate(p, True, kind) == is_degenerate(p, 1, kind)
        assert format_perm(contract(parse_perm("2,1,3+"), True)) == "1+,2+,3+"

    @pytest.mark.parametrize("text", ["2,1,3+", PERM, "3,1,2,4-"])
    def test_traces(self, text):
        p = parse_perm(text)
        for kind in MinorKind:
            got, want = trace_minor(p, True, kind), trace_minor(p, 1, kind)
            assert got == want and type(got.j) is int
            assert render_trace(got) == render_trace(want)
            obj = trace_to_obj(got)
            assert json.dumps(obj) == json.dumps(trace_to_obj(want)) and ints_only(obj)
            necklace = necklace_of(p)
            for a in range(1, p.n + 1):
                assert classify_square(p, necklace, True, a, kind) == classify_square(p, necklace, 1, a, kind)

    def test_necklace_minors_and_swaps(self):
        necklace = necklace_of(parse_perm(PERM))  # 1 is neither a loop nor a coloop
        for minor in (contract_necklace, restrict_necklace):
            assert format_necklace(minor(necklace, True)) == format_necklace(minor(necklace, 1))
        for swap in (contraction_swap, restriction_swap):
            swaps = [swap(necklace, True, a) for a in range(1, 9)]
            assert swaps == [swap(necklace, 1, a) for a in range(1, 9)] and ints_only(swaps)
