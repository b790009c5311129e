"""Import budget: a CLI launch loads only the modules its subcommand runs,
no costly stdlib module, and the lazy package namespace resolves to the
submodules' objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import futs

from conftest import DATA

FIG1 = str(DATA / "fig1.futs")
W3 = str(DATA / "w3.futs")

# run main in a fresh interpreter and print the futs modules it loaded, then
# the stdlib modules it loaded beyond those the interpreter had at start
PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
import futs.cli
with contextlib.redirect_stdout(io.StringIO()):
    futs.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "futs")))
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "futs")))
"""


def probe(*argv) -> tuple[set[str], set[str]]:
    """The futs modules and the newly loaded stdlib modules of one launch."""
    env = dict(os.environ, PYTHONPATH=str(Path(futs.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    ours, stdlib = out.splitlines()
    return set(json.loads(ours)), set(json.loads(stdlib))


def loaded_modules(*argv) -> set[str]:
    return probe(*argv)[0]


def test_help_loads_no_library_module():
    """Help and usage errors load argparse and none of the library; argparse
    also reads a command line the argument table's reader leaves to it."""
    for argv in (["--help"], ["bisim", "--help"], ["bisim"]):  # the last a usage error
        ours, stdlib = probe(*argv)
        assert ours == {"futs", "futs.cli"} and "argparse" in stdlib
    assert "argparse" in probe("check", W3, "--formula=T")[1]


@pytest.mark.parametrize("argv", [["bisim", FIG1], ["equiv", W3, "x", "y"]],
                         ids=["bisim", "equiv"])
def test_bisimulation_loads_no_logic_or_reductions(argv):
    loaded = loaded_modules(*argv)
    assert "futs.bisim" in loaded
    assert not loaded & {"futs.logic", "futs.reduce"}


def test_check_loads_no_reductions_or_bisimulation():
    loaded = loaded_modules("check", FIG1, "--formula", "<0|b|tt, 1/2> T")
    assert "futs.logic" in loaded
    assert not loaded & {"futs.reduce", "futs.bisim"}


def test_equiv_logic_and_reduce_load_what_they_run(tmp_path):
    # the level loop splits x from y without a Partition; the bisimilar pair
    # x x' runs out of levels and asks largest_bisimulation; Fig. 1, which is
    # not simple, is answered in its own logic, without reducing it
    loaded = loaded_modules("equiv", W3, "x", "y", "--logic")
    assert "futs.logic" in loaded and "futs.bisim" not in loaded
    assert {"futs.logic", "futs.bisim"} <= loaded_modules("equiv", W3, "x", "x'", "--logic")
    loaded = loaded_modules("equiv", FIG1, "s0", "s2", "--logic")
    assert "futs.logic" in loaded and not loaded & {"futs.reduce", "futs.bisim"}
    loaded = loaded_modules("reduce", FIG1, "--to", "wts", "-o", str(tmp_path / "out.futs"))
    assert "futs.reduce" in loaded
    assert not loaded & {"futs.logic", "futs.bisim"}


# dataclasses alone loads inspect, ast, dis and tokenize: 9-14 ms of every launch;
# string costs 1-1.5 ms for constants a literal spells; argparse, which only help
# and usage errors need, costs 6-8 ms with the gettext and locale of its first parser
COSTLY_STDLIB = {"dataclasses", "inspect", "string", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ["bisim", FIG1],
    ["bisim", FIG1, "--quotient", "{tmp}/q.futs"],
    ["equiv", W3, "x", "y"],
    ["equiv", W3, "x", "y", "--logic"],
    ["equiv", FIG1, "s0", "s1", "--logic"],
    ["check", FIG1, "--formula", "<0|b|tt, 1/2> T"],
    ["reduce", FIG1, "--to", "wts", "-o", "{tmp}/out.futs"],
    ["verify", FIG1, "--to", "wts"],
    ["translate", "--formula", "<0|b|tt, 1/2> T", "--sig", FIG1, "--to", "wts"],
], ids=["bisim", "bisim-quotient", "equiv", "equiv-logic", "equiv-logic-nonsimple",
        "check", "reduce", "verify", "translate"])
def test_launch_loads_no_costly_stdlib_module(argv, tmp_path):
    ours, stdlib = probe(*(a.format(tmp=tmp_path) for a in argv))
    assert len(ours) > 2  # the subcommand ran, not a usage error
    assert not stdlib & COSTLY_STDLIB


# fractions, with decimal and numbers, costs 3-4.5 ms: only a rat-plus system loads it
RATIONAL_STDLIB = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("argv", [
    ["bisim", W3],
    ["equiv", W3, "x", "y"],
    ["equiv", W3, "x", "y", "--logic"],
    ["check", W3, "--formula", "<2> T"],
    ["reduce", W3, "--to", "wts", "-o", "{tmp}/out.futs"],
    ["verify", W3, "--to", "wts"],
], ids=["bisim", "equiv", "equiv-logic", "check", "reduce", "verify"])
def test_natural_weights_load_no_fractions(argv, tmp_path):
    ours, stdlib = probe(*(a.format(tmp=tmp_path) for a in argv))
    assert len(ours) > 2  # the subcommand ran, not a usage error
    assert not stdlib & RATIONAL_STDLIB


def test_rational_weights_load_fractions():
    assert RATIONAL_STDLIB <= probe("check", FIG1, "--formula", "T")[1]  # fig1 is rat-plus


@pytest.mark.parametrize("argv", [
    ["check", FIG1, "--formula", "T"],
    ["equiv", W3, "x", "y", "--logic"],
    ["bisim", FIG1],
], ids=["check", "equiv-logic", "bisim"])
def test_every_loaded_module_has_an_importtime_row(argv):
    """A submodule first loaded by ``from . import name`` is imported
    through a path the interpreter's import timer does not see, so it
    would have no row in ``python -X importtime`` and its load time would
    be missing from a launch's breakdown."""
    env = dict(os.environ, PYTHONPATH=str(Path(futs.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE, *argv], env=env,
                         check=True, capture_output=True, text=True)
    loaded = set(json.loads(run.stdout.splitlines()[0]))
    rows = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}
    assert "futs.monoid" in loaded and not loaded - rows


SUBMODULES = ("bisim", "logic", "monoid", "reduce", "system", "textio", "weightfn")


def test_every_export_is_the_submodule_object():
    modules = {name: importlib.import_module(f"futs.{name}") for name in SUBMODULES}
    for name in futs.__all__:
        value = getattr(futs, name)
        if name in modules:
            assert value is modules[name]
            continue
        owners = {m for m, mod in modules.items() if getattr(mod, name, None) is value}
        home = getattr(value, "__module__", "") or ""
        assert owners and (not home.startswith("futs.") or home[len("futs."):] in owners), name
    assert set(futs.__all__) <= set(dir(futs))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from futs import *", namespace)
    assert set(futs.__all__) <= set(namespace)
    assert namespace["largest_bisimulation"] is futs.bisim.largest_bisimulation
    with pytest.raises(AttributeError, match="no_such_name"):
        futs.no_such_name
    with pytest.raises(ImportError):
        exec("from futs import no_such_name", {})


# test-only and superseded names, now in tests/bisim_oracle.py and tests/conftest.py
MOVED = {
    "system": ("CarrierMap dirac_embed is_homomorphism project_component relabel_weights "
               "systems_equal validate"),
    "bisim": "ext_related",
    "monoid": "Hom hom_apply monoid_section",
    "weightfn": "class_sum leaves singleton support term_depth term_equal",
}


def test_moved_names_are_not_library_api():
    for module, names in MOVED.items():
        for name in names.split():
            assert name not in futs.__all__
            assert not hasattr(importlib.import_module(f"futs.{module}"), name), name
            with pytest.raises(ImportError):
                exec(f"from futs import {name}", {})
    assert not hasattr(futs.bisim.Partition, "restrict")
    assert not hasattr(futs.reduce.Reduction, "carrier_map")
