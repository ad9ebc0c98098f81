"""What a fresh process loads and prints: the package surface after lazy loading.

`import positroids` loads `core` alone and resolves the names of `families`,
`minors`, `oracle` and `orders` on first use, and each CLI handler imports
what it needs when it runs.  In this test process every module is loaded
already, so a handler that forgot its import would still pass the in-process
tests; the checks here that matter run in a new interpreter.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import positroids
import positroids.core
import positroids.minors
import positroids.oracle
from positroids.cli import run

# the directory that holds the positroids package, for the child processes
PACKAGE_ROOT = str(Path(positroids.__file__).resolve().parents[1])

GOLDEN_PERM = "6,1,4,8,2,7,3,5"
GOLDEN_NECKLACE = "1,2,3,5;2,3,5,6;1,3,5,6;1,4,5,6;1,5,6,8;1,2,6,8;1,2,7,8;1,2,3,8"
LAZY_MODULES = ("positroids.families", "positroids.minors", "positroids.oracle", "positroids.orders", "json")
# what loading oracle loads of this package
ORACLE_MODULES = {"positroids.families", "positroids.minors", "positroids.oracle"}
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
        (["necklace", "--perm", GOLDEN_PERM], set()),
        (["perm", "--necklace", GOLDEN_NECKLACE], set()),
        (["bases", "--perm", GOLDEN_PERM], {"positroids.families"}),
        (["restrict", "--perm", GOLDEN_PERM, "-j", "5", "--trace"], {"positroids.minors"}),
        (["contract", "--format", "json", "--perm", GOLDEN_PERM, "-j", "3"], {"positroids.minors", "json"}),
        (["necklace", "--format", "json", "--perm", GOLDEN_PERM], {"json"}),
        (["is-positroid", "--bases", "1,2;2,3;3,4;1,4"], ORACLE_MODULES),
        (["verify", "--max-n", "3"], ORACLE_MODULES),
    ],
    ids=["import positroids", "necklace", "perm", "bases", "restrict --trace", "contract json", "necklace json",
         "is-positroid", "verify"],
)
def test_what_a_fresh_process_loads(at_bare_start, argv, loads):
    code = "import positroids" if argv is None else f"from positroids.cli import run\nrun({argv!r})"
    assert loaded_after(code) - at_bare_start == loads - at_bare_start


def test_reading_an_order_helper_loads_orders_alone(at_bare_start):
    loads = loaded_after("import positroids\npositroids.gale_leq")
    assert loads - at_bare_start == {"positroids.orders"} - at_bare_start


def test_reading_the_orders_module_through_the_package_loads_it_alone(at_bare_start):
    loads = loaded_after("import positroids\nassert positroids.orders.__name__ == 'positroids.orders'")
    assert loads - at_bare_start == {"positroids.orders"} - at_bare_start


def test_a_submodule_the_package_has_not_bound_comes_through_the_hook(monkeypatch):
    # here orders is loaded already; with its package binding gone, the read
    # goes through the module __getattr__ and gives the loaded module back
    monkeypatch.delattr(positroids, "orders", raising=False)
    assert positroids.orders is sys.modules["positroids.orders"]


def test_dir_lists_every_exported_name():
    # the fresh process of test_the_surface_in_a_fresh_process checks this
    # too, before any lazy name is bound; here most of them are
    assert set(positroids.__all__) <= set(dir(positroids))


def test_reading_a_family_name_loads_families_alone(at_bare_start):
    loads = loaded_after("import positroids\npositroids.BasisFamily")
    assert loads - at_bare_start == {"positroids.families"} - at_bare_start
