"""Positroids: decorated permutations, Grassmann necklaces, and their minors.

`import positroids` loads `core` alone.  The names that `minors` and `oracle`
define, and those two submodules themselves, resolve on first use through the
module `__getattr__` (PEP 562), which imports the defining module then.  A
one-shot call that needs only `core`, such as `positroids necklace`, so never
compiles or runs the other two: where Python writes no bytecode cache, every
process pays that cost again for each module it imports.
"""

import importlib

from .core import (
    MAX_GROUND_SET,
    BasisFamily,
    DecoratedPermutation,
    GrassmannNecklace,
    InvalidNecklaceError,
    NecklaceViolation,
    PositroidError,
    PreconditionError,
    Subset,
    ValidationError,
    bases_of,
    bases_to_obj,
    cyclic_lt,
    dual,
    format_bases,
    format_necklace,
    format_perm,
    format_subset,
    gale_extremum,
    gale_leq,
    in_cyclic_interval,
    loop_coloop_status,
    necklace_of,
    necklace_step,
    necklace_to_obj,
    necklace_violations,
    parse_bases,
    parse_necklace,
    parse_perm,
    parse_subset,
    perm_of,
    perm_to_obj,
    pred,
    succ,
    validate_necklace,
)

# name -> the submodule that defines it, imported on the first read of a name
_LAZY = {
    **dict.fromkeys((
        "CaseLabel", "MinorKind", "MinorResult", "MinorTrace", "SquareRow", "apply_minor",
        "classify_square", "contract", "contract_necklace", "contraction_swap", "is_degenerate",
        "render_trace", "restrict", "restrict_necklace", "restriction_swap", "trace_minor",
        "trace_to_obj",
    ), "minors"),
    **dict.fromkeys((
        "BOTH_KINDS", "ENUMERATION_CAP", "VerificationReport", "check_matroid",
        "enumerate_decorated_perms", "is_positroid", "oracle_contract", "oracle_delete",
        "oracle_necklace", "verify_all",
    ), "oracle"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None and name not in ("minors", "oracle"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule also binds it here, so each submodule name comes
    # through once; a lazy name is kept so that later reads skip this hook
    loaded = importlib.import_module(f"{__name__}.{module or name}")
    if module is None:
        return loaded
    value = getattr(loaded, name)
    # but only the submodule's own object: a stand-in patched over it for a
    # while (a test's stub, a tracing wrapper) must not outlive its removal
    if getattr(value, "__module__", loaded.__name__) == loaded.__name__:
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "MAX_GROUND_SET", "BOTH_KINDS", "ENUMERATION_CAP", "BasisFamily", "CaseLabel",
    "DecoratedPermutation", "GrassmannNecklace", "InvalidNecklaceError", "MinorKind",
    "MinorResult", "MinorTrace", "NecklaceViolation", "PositroidError", "PreconditionError",
    "SquareRow", "Subset", "ValidationError", "VerificationReport", "apply_minor", "bases_of",
    "bases_to_obj", "check_matroid", "classify_square", "contract", "contract_necklace",
    "contraction_swap", "cyclic_lt", "dual", "enumerate_decorated_perms", "format_bases",
    "format_necklace", "format_perm", "format_subset", "gale_extremum", "gale_leq",
    "in_cyclic_interval", "is_degenerate", "is_positroid", "loop_coloop_status", "necklace_of",
    "necklace_step", "necklace_to_obj", "necklace_violations", "oracle_contract",
    "oracle_delete", "oracle_necklace", "parse_bases", "parse_necklace", "parse_perm",
    "parse_subset", "perm_of", "perm_to_obj", "pred", "render_trace", "restrict",
    "restrict_necklace", "restriction_swap", "succ", "trace_minor", "trace_to_obj",
    "validate_necklace", "verify_all",
]
