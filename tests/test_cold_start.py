"""What a fresh process loads and prints: the package surface after lazy loading.

`import positroids` loads `core` alone and resolves the names of `text`,
`subsets`, `families`, `minors`, `oracle` and `orders` on first use, and each
CLI handler imports what it needs when it runs.  Every command loads `text`,
which holds the text and JSON forms, but a library call that prints nothing,
a sweep among them, does not.  No command loads `subsets`: the
library reaches it only inside the calls that build or check a `Subset`.  In
this test process every module is loaded already, so a handler that forgot
its import would still pass the in-process tests; the checks here that matter
run in a new interpreter.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import positroids
import positroids.cli
import positroids.core
import positroids.families
import positroids.minors
import positroids.oracle
from positroids.cli import run

# the directory that holds the positroids package, for the child processes
PACKAGE_ROOT = str(Path(positroids.__file__).resolve().parents[1])

GOLDEN_PERM = "6,1,4,8,2,7,3,5"
GOLDEN_NECKLACE = "1,2,3,5;2,3,5,6;1,3,5,6;1,4,5,6;1,5,6,8;1,2,6,8;1,2,7,8;1,2,3,8"
LAZY_MODULES = (
    "positroids.families", "positroids.minors", "positroids.oracle", "positroids.orders", "positroids.text", "json",
)
# what the verify command loads of this package: oracle with families and minors, and text with the CLI
ORACLE_MODULES = {"positroids.families", "positroids.minors", "positroids.oracle", "positroids.text"}
# the names that `text` defines
TEXT_NAMES = ("format_necklace", "format_perm", "necklace_to_obj", "parse_necklace", "parse_perm", "perm_to_obj")
# what importing dataclasses would load, and the module a future import loads; no command needs any of them
UNUSED_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "__future__")
# what importing argparse would load; the command table reads argv without them
PARSER_MODULES = ("argparse", "gettext", "locale")


def python(*args):
    """Run a fresh interpreter that imports positroids from this tree."""
    paths = [PACKAGE_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, *args], env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
    )


def mask_elapsed(text):
    text = re.sub(r"\d+\.\d+s\b", "<elapsed>s", text)
    return re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": <elapsed>', text)


CLI_CALLS = [
    ["necklace", "--perm", GOLDEN_PERM],
    ["perm", "--necklace", GOLDEN_NECKLACE],
    ["bases", "--perm", GOLDEN_PERM],
    ["bases", "--necklace", GOLDEN_NECKLACE],
    ["contract", "--perm", "1+,3,2", "-j", "1", "-j", "2"],
    ["restrict", "--perm", GOLDEN_PERM, "-j", "5", "--trace"],
    ["is-positroid", "--bases", "1,2;2,3;3,4;1,4"],
    ["verify", "--max-n", "3"],
]


@pytest.mark.parametrize(
    "argv",
    [call + form for call in CLI_CALLS for form in ([], ["--format", "json"])]
    + [["necklace", "--perm", "3,2,1"]],
    ids=lambda argv: " ".join(argv),
)
def test_a_fresh_process_prints_what_run_prints(capsys, argv):
    child = python("-m", "positroids.cli", *argv)
    status = run(argv)
    captured = capsys.readouterr()
    assert child.returncode == status == (1 if argv[-1] == "3,2,1" else 0)
    assert mask_elapsed(child.stdout) == mask_elapsed(captured.out)
    assert child.stderr == captured.err


# the exported constants; every other exported name carries its __module__
CONSTANTS = {"MAX_GROUND_SET": positroids.core, "BOTH_KINDS": positroids.oracle, "ENUMERATION_CAP": positroids.oracle}


@pytest.mark.parametrize("name", positroids.__all__)
def test_every_name_is_the_defining_modules_object(name):
    value = getattr(positroids, name)
    module = CONSTANTS[name] if name in CONSTANTS else sys.modules[value.__module__]
    assert value is getattr(module, name)


def test_a_stand_in_patched_on_a_submodule_is_not_kept(monkeypatch):
    real = positroids.oracle.verify_all
    monkeypatch.delitem(vars(positroids), "verify_all", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(positroids.oracle, "verify_all", lambda *args, **kwargs: None)
        assert positroids.verify_all is not real
    assert positroids.verify_all is real
    assert vars(positroids)["verify_all"] is real


SURFACE_CHECK = """
import sys
import positroids
names = positroids.__all__
assert set(names) <= set(dir(positroids)), set(names) - set(dir(positroids))
assert positroids.minors is sys.modules["positroids.minors"]
assert positroids.oracle is sys.modules["positroids.oracle"]
assert positroids.verify_all is positroids.oracle.verify_all
assert "verify_all" in vars(positroids)
namespace = {}
exec("from positroids import *", namespace)
assert all(namespace[name] is getattr(positroids, name) for name in names)
try:
    positroids.no_such_name
except AttributeError as err:
    print(err)
"""


def test_the_surface_in_a_fresh_process():
    child = python("-c", SURFACE_CHECK)
    assert (child.returncode, child.stdout, child.stderr) == (0, "module 'positroids' has no attribute 'no_such_name'\n", "")


def package_modules_after(code):
    """The modules of this package that a fresh process has loaded after running code."""
    report = "import sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'positroids'), file=sys.stderr)"
    child = python("-c", f"{code}\n{report}")
    assert child.returncode == 0, child.stderr
    return set(child.stderr.splitlines()[-1].split())


def loaded_after(code):
    """Which of LAZY_MODULES, UNUSED_MODULES and PARSER_MODULES a fresh process has loaded after running code."""
    watched = {*LAZY_MODULES, *UNUSED_MODULES, *PARSER_MODULES}
    report = f"import sys\nprint(*sorted(sys.modules.keys() & {watched!r}), file=sys.stderr)"
    child = python("-c", f"{code}\n{report}")
    assert child.returncode == 0, child.stderr
    return set(child.stderr.splitlines()[-1].split())


@pytest.fixture(scope="module")
def at_bare_start():
    # a module counts only where a bare interpreter does not load it already
    return loaded_after("pass")


@pytest.mark.parametrize(
    "argv, loads",
    [
        (None, set()),
        (["necklace", "--perm", GOLDEN_PERM], {"positroids.text"}),
        (["perm", "--necklace", GOLDEN_NECKLACE], {"positroids.text"}),
        (["bases", "--perm", GOLDEN_PERM], {"positroids.families", "positroids.text"}),
        (["restrict", "--perm", GOLDEN_PERM, "-j", "5", "--trace"], {"positroids.minors", "positroids.text"}),
        (["contract", "--format", "json", "--perm", GOLDEN_PERM, "-j", "3"],
         {"positroids.minors", "positroids.text", "json"}),
        (["necklace", "--format", "json", "--perm", GOLDEN_PERM], {"positroids.text", "json"}),
        (["is-positroid", "--bases", "1,2;2,3;3,4;1,4"], {"positroids.families", "positroids.text"}),
        (["verify", "--max-n", "3"], ORACLE_MODULES),
    ],
    ids=["import positroids", "necklace", "perm", "bases", "restrict --trace", "contract json", "necklace json",
         "is-positroid", "verify"],
)
def test_what_a_fresh_process_loads(at_bare_start, argv, loads):
    code = "import positroids" if argv is None else f"from positroids.cli import run\nrun({argv!r})"
    assert loaded_after(code) - at_bare_start == loads - at_bare_start


# orders imports subsets, which reads and writes subset text through `text`
ORDERS_MODULES = {"positroids.orders", "positroids.text"}


def test_reading_an_order_helper_loads_orders_alone(at_bare_start):
    loads = loaded_after("import positroids\npositroids.gale_leq")
    assert loads - at_bare_start == ORDERS_MODULES - at_bare_start


def test_reading_the_orders_module_through_the_package_loads_it_alone(at_bare_start):
    loads = loaded_after("import positroids\nassert positroids.orders.__name__ == 'positroids.orders'")
    assert loads - at_bare_start == ORDERS_MODULES - at_bare_start


def test_a_submodule_the_package_has_not_bound_comes_through_the_hook(monkeypatch):
    # here orders is loaded already; with its package binding gone, the read
    # goes through the module __getattr__ and gives the loaded module back
    monkeypatch.delattr(positroids, "orders", raising=False)
    assert positroids.orders is sys.modules["positroids.orders"]


def test_dir_lists_every_exported_name():
    # the fresh process of test_the_surface_in_a_fresh_process checks this
    # too, before any lazy name is bound; here most of them are
    assert set(positroids.__all__) <= set(dir(positroids))


# families imports `text` only inside the calls that parse or print basis text
FAMILY_MODULES = {"positroids.families"}


def test_reading_a_family_name_loads_families_alone(at_bare_start):
    loads = loaded_after("import positroids\npositroids.BasisFamily")
    assert loads - at_bare_start == FAMILY_MODULES - at_bare_start


RECOGNITION = ("is_positroid", "check_matroid", "oracle_necklace")


@pytest.mark.parametrize("name", RECOGNITION)
def test_reading_a_recognition_name_loads_families_alone(at_bare_start, name):
    loads = loaded_after(f"import positroids\npositroids.{name}")
    assert loads - at_bare_start == FAMILY_MODULES - at_bare_start


@pytest.mark.parametrize("name", RECOGNITION)
def test_oracle_names_the_recognition_that_families_defines(name):
    assert getattr(positroids.oracle, name) is getattr(positroids.families, name)


@pytest.mark.parametrize(
    "argv", [call + form for call in CLI_CALLS for form in ([], ["--format", "json"])], ids=" ".join,
)
def test_no_command_loads_subsets(argv):
    assert "positroids.subsets" not in package_modules_after(f"from positroids.cli import run\nrun({argv!r})")


def test_import_positroids_loads_core_alone():
    assert package_modules_after("import positroids") == {"positroids", "positroids.core"}


# calls that compute on values the library builds and print nothing: none of them loads `text`
COMPUTING_CALLS = [
    ("positroids.verify_all(3, positroids.BOTH_KINDS)",
     {"positroids.families", "positroids.minors", "positroids.oracle"}),
    ("positroids.contract(p, 1)", {"positroids.minors"}),
    ("positroids.trace_minor(p, 1, positroids.MinorKind.RESTRICTION)", {"positroids.minors"}),
    ("positroids.is_positroid(positroids.bases_of(positroids.necklace_of(p)))", {"positroids.families"}),
]


@pytest.mark.parametrize(
    "expression, loads", COMPUTING_CALLS, ids=["verify_all", "contract", "trace_minor", "is_positroid"],
)
def test_a_call_that_prints_nothing_loads_no_text(expression, loads):
    code = f"import positroids\np = positroids.DecoratedPermutation.of([2, 3, 1])\n{expression}"
    assert package_modules_after(code) == {"positroids", "positroids.core", *loads}


@pytest.mark.parametrize("name", TEXT_NAMES)
def test_reading_a_text_name_loads_text_alone(name):
    loads = package_modules_after(f"import positroids\npositroids.{name}")
    assert loads == {"positroids", "positroids.core", "positroids.text"}


@pytest.mark.parametrize("name", ["Subset", "format_subset", "parse_subset", "necklace_violations", "validate_necklace"])
def test_reading_a_subset_name_loads_subsets_alone(name):
    # subsets reads and writes subset text through `text`
    loads = package_modules_after(f"import positroids\npositroids.{name}")
    assert loads == {"positroids", "positroids.core", "positroids.subsets", "positroids.text"}


# calls that build or check a Subset, each the first use of `subsets` in its process
SUBSET_CALLS = [
    "positroids.parse_necklace('1,2;2,3;1,3').entries",
    "positroids.parse_necklace('1,2;2,3;1,3').entry(5)",
    "positroids.GrassmannNecklace(positroids.necklace_of(positroids.parse_perm('2,3,1')).entries)",
    "positroids.BasisFamily.of(4, [[1, 2], [2, 3], (3, 4), [1, 4]])",
    "sorted(positroids.bases_of(positroids.parse_necklace('1,2;2,3;1,3')).bases, key=str)",
    "positroids.parse_bases('1,2;1,03', 3).sorted_bases()",
    "positroids.trace_minor(positroids.parse_perm('2,3,1'), 1, positroids.MinorKind.CONTRACTION).rows[0]",
]


@pytest.mark.parametrize("expression", SUBSET_CALLS)
def test_a_fresh_process_builds_subsets_through_the_library(expression):
    child = python("-c", f"import positroids\nprint(repr({expression}))")
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == f"{eval(expression, {'positroids': positroids})!r}\n"


# the four JSON builders of the commands, at the sites the handlers read them
# from, each with the call of CLI_CALLS that builds it under --format json
JSON_BUILDERS = [
    (positroids.cli, "necklace_to_obj", CLI_CALLS[0]), (positroids.cli, "perm_to_obj", CLI_CALLS[1]),
    (positroids.families, "bases_to_obj", CLI_CALLS[2]), (positroids.minors, "trace_to_obj", CLI_CALLS[5]),
]


# the four text builders likewise, each with the call of CLI_CALLS that builds it in text mode
TEXT_BUILDERS = [
    (positroids.cli, "format_necklace", CLI_CALLS[0]), (positroids.cli, "format_perm", CLI_CALLS[1]),
    (positroids.families, "format_bases", CLI_CALLS[2]), (positroids.minors, "render_trace", CLI_CALLS[5]),
]


def refuse(*args):
    raise AssertionError("a form the call does not print was built")


@pytest.mark.parametrize("module, name, argv", JSON_BUILDERS, ids=[name for _, name, _ in JSON_BUILDERS])
def test_the_json_form_reads_each_builder_where_it_is_patched(monkeypatch, module, name, argv):
    monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="a form the call does not print was built"):
        run([*argv, "--format", "json"])


@pytest.mark.parametrize("module, name, argv", TEXT_BUILDERS, ids=[name for _, name, _ in TEXT_BUILDERS])
def test_the_text_form_reads_each_builder_where_it_is_patched(monkeypatch, module, name, argv):
    monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="a form the call does not print was built"):
        run(argv)


def printed_with(capsys, monkeypatch, form, refused):
    """What CLI_CALLS print under form (statuses, stdout, stderr), first as they are, then with refused patched."""
    def printed():
        statuses = [run([*argv, *form]) for argv in CLI_CALLS]
        captured = capsys.readouterr()
        return statuses, mask_elapsed(captured.out), captured.err

    expected = printed()
    for module, name, _ in refused:
        monkeypatch.setattr(module, name, refuse)
    return expected, printed()


def test_text_mode_builds_no_json_object(capsys, monkeypatch):
    expected, got = printed_with(capsys, monkeypatch, [], JSON_BUILDERS)
    assert got == expected


def test_json_mode_builds_no_text_form(capsys, monkeypatch):
    expected, got = printed_with(capsys, monkeypatch, ["--format", "json"], TEXT_BUILDERS)
    assert got == expected


# text-mode calls that need neither `re` nor `enum`; a start-up without `site` loads neither
SITELESS_CALLS = [CLI_CALLS[0], CLI_CALLS[1], CLI_CALLS[2], CLI_CALLS[6]]


@pytest.mark.parametrize("argv", SITELESS_CALLS, ids=" ".join)
def test_a_call_without_site_loads_no_re(argv):
    report = "import sys\nprint(*sorted(sys.modules.keys() & {'re', 'enum'}), file=sys.stderr)"
    child = python("-S", "-c", f"from positroids.cli import run\nrun({argv!r})\n{report}")
    assert child.returncode == 0, child.stderr
    assert child.stderr.split() == []
