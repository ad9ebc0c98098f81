"""Positroids: decorated permutations, Grassmann necklaces, and their minors.

`import positroids` loads `core` alone and takes the names in its `__all__`.
The names that `text`, `subsets`, `families`, `minors`, `oracle` and `orders`
define, and those submodules themselves, resolve on first use through the
module `__getattr__` (PEP 562), which imports the defining module then.  The
text and JSON forms (`parse_perm`, `format_necklace`, ...) live in `text`,
which the other modules import only where they parse or print, so a program
that computes without either, such as a `verify_all` sweep, never compiles
it; and a one-shot call that needs only `core` and `text`, such as
`positroids necklace`, never compiles or runs the others: where Python writes
no bytecode cache, every process pays that cost again for each module it
imports.  Recognition
(`is_positroid`, `check_matroid`, `oracle_necklace`) is defined in
`families`, so reading it loads neither `minors` nor `oracle`.  `Subset`,
which no command builds, is defined in `subsets`, so reading it loads that
module alone.
"""

import importlib

from . import core
from .core import *

# name -> the submodule that defines it, imported on the first read of a name
_LAZY = {
    **dict.fromkeys((
        "CaseLabel", "MinorKind", "MinorResult", "MinorTrace", "SquareRow", "apply_minor",
        "classify_square", "contract", "contract_necklace", "contraction_swap", "is_degenerate",
        "render_trace", "restrict", "restrict_necklace", "restriction_swap", "trace_minor",
        "trace_to_obj",
    ), "minors"),
    **dict.fromkeys((
        "BOTH_KINDS", "ENUMERATION_CAP", "VerificationReport", "enumerate_decorated_perms", "oracle_contract",
        "oracle_delete", "verify_all",
    ), "oracle"),
    **dict.fromkeys((
        "BasisFamily", "bases_of", "bases_to_obj", "check_matroid", "format_bases", "is_positroid", "oracle_necklace",
        "parse_bases",
    ), "families"),
    **dict.fromkeys((
        "format_necklace", "format_perm", "necklace_to_obj", "parse_necklace", "parse_perm", "perm_to_obj",
    ), "text"),
    **dict.fromkeys((
        "Subset", "format_subset", "necklace_violations", "parse_subset", "validate_necklace",
    ), "subsets"),
    **dict.fromkeys((
        "cyclic_lt", "gale_extremum", "gale_leq", "in_cyclic_interval", "necklace_step", "pred", "succ",
    ), "orders"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None and name not in _LAZY.values():
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

__all__ = [*core.__all__, *_LAZY]
