"""The package root's export list, and the imports of every module."""
import ast
import enum
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import hiercoop
from hiercoop import (
    NetworkConfig,
    SuiteResult,
    c0_tradeoff,
    classify,
    compare_schemes,
    derive,
    layer_choice,
    layer_throughput,
    minimal_delay,
    optimal_modified,
    smooth_modified,
)
from hiercoop.cli import _OPTIONS
from hiercoop.params import _DepthTabled, _Frozen
from hiercoop.recurrence import delay_closed_form, delay_recursive

MODULES = sorted(pathlib.Path(hiercoop.__file__).parent.glob("*.py"))


#: names the package root resolves on first use, not at import
LAZY = {"SuiteResult", "run_all"}

#: modules that only some subcommands read
DEFERRED = ("configparser", "csv", "hiercoop.selfcheck")


def _fresh_python(code, *args):
    # a new interpreter, so nothing this test session imported is loaded yet
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_export_list_is_the_public_surface_without_repeats():
    # a name deleted from a module must leave __all__ and the imports together;
    # the eager names are read before anything resolves a lazy one
    code = (
        "import json, types, hiercoop\n"
        "eager = sorted(n for n, v in vars(hiercoop).items()\n"
        "               if not n.startswith('_') and not isinstance(v, types.ModuleType))\n"
        "resolved = sorted(n for n in hiercoop.__all__ if getattr(hiercoop, n, None) is not None)\n"
        "star = {}\n"
        "exec('from hiercoop import *', star)\n"
        "try:\n"
        "    hiercoop.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([hiercoop.__all__, eager, resolved, sorted(star), missing]))\n"
    )
    exported, eager, resolved, star, missing = json.loads(_fresh_python(code))
    assert len(exported) == len(set(exported))
    assert LAZY.isdisjoint(eager)
    assert set(exported) == set(eager) - {"annotations"} | LAZY
    assert resolved == sorted(exported)
    assert set(star) - {"__builtins__"} == set(exported)
    assert missing == "module 'hiercoop' has no attribute 'no_such_name'"


def test_every_exported_function_has_a_caller_in_the_package():
    # a public function that only tests call is deleted, not exported
    called = set()
    for path in MODULES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    functions = [
        name for name in hiercoop.__all__ if isinstance(getattr(hiercoop, name), types.FunctionType)
    ]
    assert functions and sorted(set(functions) - called) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a deletion that leaves its imports behind fails here; __all__ counts as a use
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # dataclasses loads inspect; the two records that check or derive a field
    # are _Frozen subclasses instead
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.partition(".")[0])
    assert "dataclasses" not in imported


def test_importing_the_cli_leaves_dataclasses_unloaded():
    code = "import sys, hiercoop.cli; print('dataclasses' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["analyze", "--n", "131072"], []),
        (["tradeoff", "--n", "200", "--area", "100", "--alpha", "4", "--candidate", "2:1:1"], []),
        (["sweep", "--grid", "1024:1048576:5:log", "--c-mh", "1"], ["csv"]),
        (["verify"], ["hiercoop.selfcheck"]),
        (["analyze", "--config", "CONFIG"], ["configparser"]),
    ],
    ids=["import", "analyze", "tradeoff", "sweep-csv", "verify", "analyze-config"],
)
def test_each_subcommand_loads_only_the_deferred_modules_it_reads(tmp_path, argv, loaded):
    config = tmp_path / "network.ini"
    config.write_text("[network]\nn = 131072\n", encoding="utf-8")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    code = (
        "import sys, hiercoop.cli\n"
        "rc = hiercoop.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n"
        "sys.exit(rc)\n"
    )
    assert _fresh_python(code, *argv).splitlines()[-1] == repr(loaded)


def test_a_record_checks_or_derives_in_init_or_is_a_named_tuple():
    # a record that neither checks nor derives a field is a NamedTuple, which
    # is several times cheaper to build; the others define their own __init__
    records = [
        cls
        for path in MODULES
        if path.stem not in ("__init__", "__main__")
        for mod in [importlib.import_module(f"hiercoop.{path.stem}")]
        for cls in vars(mod).values()
        if isinstance(cls, type)
        and cls.__module__ == mod.__name__
        and not issubclass(cls, (Exception, enum.Enum))
        and cls not in (_Frozen, _DepthTabled)  # the bases, not records
    ]
    frozen = [cls.__qualname__ for cls in records if issubclass(cls, _Frozen)]
    assert sorted(frozen) == ["NetworkConfig", "SchemeParams"]
    assert [
        cls.__qualname__
        for cls in records
        if not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
        and not (issubclass(cls, _Frozen) and "__init__" in vars(cls))
    ] == []


def _records():
    # one instance of each result record, from the call that returns it, by
    # test id; a record built by position also comes from each further site
    params = derive(1.0, 1.0)
    sparse = NetworkConfig(n=200, area=100.0, alpha=4.0)
    both = optimal_modified(131072, params)
    return {
        "ModifiedThroughput": both,
        "ThroughputReport": both.smooth,
        "LayerChoice": layer_choice(131072, params),
        "DelaySlots": delay_recursive((512.0, 16.0), params),
        "SweepRow": compare_schemes([131072], NetworkConfig(n=131072), params, c_mh=1.0)[0],
        "RegimeReport": classify(sparse),
        "CandidateOutcome": c0_tradeoff(sparse, [(1.0, 1.0, 1.0)])[0],
        "SuiteResult": SuiteResult("suite", True, 0.0, 1, 1e-9),
        "_Option": _OPTIONS["n"],
        "SweepRow-error": compare_schemes([3], NetworkConfig(n=131072), params, c_mh=1.0)[0],
        "ThroughputReport-layer_throughput": layer_throughput(3, 131072, params),
        "ThroughputReport-smooth_modified": smooth_modified(200, params),
        "DelaySlots-minimal_delay": minimal_delay(3, 512.0, params),
        "DelaySlots-delay_closed_form": delay_closed_form((512.0, 16.0), params),
    }


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_result_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_positionally_built_records_hold_every_field(record):
    # tuple.__new__(cls, values) checks no arity, so a record built that way
    # must hold one value per field, defaults included, and be the record,
    # and print as the record, that the generated constructor builds
    assert len(record) == len(record._fields)
    rebuilt = type(record)(*record)
    assert rebuilt == record and repr(rebuilt) == repr(record)
