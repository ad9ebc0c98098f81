"""
Restricting away an element
===========================

Restriction (deletion of one element) is contraction in the dual: the
dual positroid inverts the permutation and negates its fixed-point colors,
and deleting j is dualising, contracting j and dualising back.
"""

from positroids import (
    MinorKind,
    apply_minor,
    bases_of,
    contract,
    format_perm,
    loop_coloop_status,
    necklace_of,
    oracle_delete,
    parse_perm,
    render_trace,
    restrict,
    trace_minor,
)

p = parse_perm("6,1,4,8,2,7,3,5")
j = 5

mu = restrict(p, j)
print("restrict at", j, "gives", format_perm(mu))
print(j, "is now a", loop_coloop_status(mu, j))

trace = trace_minor(p, j, MinorKind.RESTRICTION)
print()
print(render_trace(trace))

# oracle cross-check: drop every basis that uses j, nothing else moves
oracle = oracle_delete(bases_of(necklace_of(p)), j)
assert bases_of(necklace_of(mu)).bases == oracle.bases

# minors compose; here contract 3 first, then restrict 5
step1 = apply_minor(p, 3, MinorKind.CONTRACTION)
step2 = apply_minor(step1.perm, 5, MinorKind.RESTRICTION)
print()
print("contract 3 then restrict 5:", format_perm(step2.perm))
print("degenerate along the way:", step1.degenerate or step2.degenerate)

# fixed points are where the conventions take over instead of the walk
q = parse_perm("2,1,3-")
print()
print("restricting the coloop of", format_perm(q), "gives", format_perm(restrict(q, 3)))
print("contracting it instead gives", format_perm(contract(q, 3)))
