"""Start-up regression tests: what each command imports, the lazy API, and
that engmeta imports nothing outside the standard library.

Each case runs in a fresh interpreter, because this test process has
imported most of engmeta already. Nothing here is timed: the assertions
are on ``sys.modules`` and on attribute identity only.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI, then writes the loaded modules to the file named first.
_RUN_CLI = """
import json, sys
from engmeta.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump({"code": code, "modules": sorted(sys.modules)}, out)
"""

READERS = {"engmeta", "engmeta.canon", "engmeta.cli", "engmeta.errors", "engmeta.model"}
VALIDATION = {"engmeta.isodates", "engmeta.validation"}
EXTRACTION = VALIDATION | {
    "engmeta.extract", "engmeta.extract.config", "engmeta.extract.engine",
    "engmeta.fswalk", "engmeta.paths",
}
HARVEST = VALIDATION | {"engmeta.fswalk", "engmeta.harvest"}

EXTRACT = ["extract", "--config", "{rules}", "--root", "{corpus}", "--out", "{out}"]
COMMANDS = {
    "validate": (["validate", "--in", "{golden}"], READERS | VALIDATION),
    "to-prov": (
        ["to-prov", "--in", "{golden}", "--out", "{out}"],
        READERS | {"engmeta.isodates", "engmeta.prov"},
    ),
    "to-dataverse": (
        ["to-dataverse", "--in", "{golden}", "--out", "{out}"],
        READERS | {"engmeta.flatten"},
    ),
    "extract": (EXTRACT, READERS | EXTRACTION),
    "extract --mode parallel": (EXTRACT + ["--mode", "parallel"], READERS | EXTRACTION),
    "extract --format json": (EXTRACT + ["--format", "json"], READERS | EXTRACTION),
    "harvest": (["harvest", "--root", "{corpus}", "--out", "{out}"], READERS | HARVEST),
    "harvest --merge-into": (
        ["harvest", "--root", "{corpus}", "--merge-into", "{golden}", "--out", "{out}"],
        READERS | HARVEST | {"engmeta.merging"},
    ),
    "harvest --merge-into --format json": (
        ["harvest", "--root", "{corpus}", "--merge-into", "{golden}", "--out", "{out}",
         "--format", "json"],
        READERS | HARVEST | {"engmeta.merging"},
    ),
}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *args],  # a warning fails it
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_layers(command, tmp_path, golden_xml_path, rules_path,
                                       corpus_dir):
    template, expected = COMMANDS[command]
    argv = [
        arg.format(golden=golden_xml_path, rules=rules_path, corpus=corpus_dir, out=tmp_path / "out")
        for arg in template
    ]
    loaded_file = tmp_path / "loaded.json"
    result = _python(_RUN_CLI, str(loaded_file), *argv)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(loaded_file.read_text())
    assert loaded["code"] == 0
    assert {m for m in loaded["modules"] if m.split(".")[0] == "engmeta"} == expected
    # both extract modes run one serial path: no command loads a pool
    assert "concurrent.futures" not in loaded["modules"]
    # only PROV's entity ids and harvest's checksums hash
    assert ("hashlib" in loaded["modules"]) == command.startswith(("to-prov", "harvest"))
    # the model declares its nodes itself, and the rule classes are named tuples
    assert not {"dataclasses", "inspect"} & set(loaded["modules"])


# Parses a rule file as the benchmark's set-up probe does, then prints which
# of the two modules it loaded.
_PARSE_RULES = """
import sys, engmeta
from pathlib import Path
engmeta.parse_config(Path(sys.argv[1]).read_text(encoding="utf-8"))
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_parsing_rules_loads_no_dataclasses(rules_path):
    result = _python(_PARSE_RULES, str(rules_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Makes the node classes dataclasses by one first introspection, then checks
# every node class against the model's schema.
_INTROSPECT = """
import sys
from engmeta import model
assert "dataclasses" not in sys.modules
classes = model._Node.__subclasses__()
assert not any("__dataclass_fields__" in vars(cls) for cls in classes)
import dataclasses
{first}
assert not dataclasses.is_dataclass(model._Node)
for cls in classes:
    assert dataclasses.is_dataclass(cls), cls
    fields = dataclasses.fields(cls)
    specs = model.schema(cls)
    assert [f.name for f in fields] == [spec.attr for spec in specs], cls
    defaults = [() if spec.kind in (model.SCALAR_LIST, model.NODE_LIST) else None
                for spec in specs]
    assert [f.default for f in fields] == [getattr(cls, s.attr) for s in specs] == defaults, cls
try:
    model.Title("t").text = "u"
except Exception as error:
    assert type(error) is dataclasses.FrozenInstanceError, type(error)
else:
    raise AssertionError("a node field was assigned")
"""

FIRST_INTROSPECTIONS = {
    "fields on an instance": "assert [f.name for f in dataclasses.fields(model.Title('t'))]"
                             " == ['text', 'titleType']",
    "is_dataclass on a class": "assert dataclasses.is_dataclass(model.EngMetaDataset)",
    "replace on an instance": "assert dataclasses.replace(model.Title('t'), text='u')"
                              " == model.Title('u')",
}


@pytest.mark.parametrize("first", sorted(FIRST_INTROSPECTIONS))
def test_node_classes_become_dataclasses_on_first_introspection(first):
    result = _python(_INTROSPECT.format(first=FIRST_INTROSPECTIONS[first]))
    assert result.returncode == 0, result.stderr


IMPORT_ORDERS = {
    "package first": "import engmeta; engmeta.extract; from engmeta.extract import scan_file",
    "submodule first": "from engmeta.flatten import serialize_blocks_json; import engmeta",
    "dotted import": "import engmeta.harvest, engmeta.extract, engmeta.flatten",
    "from the package": "from engmeta import extract, flatten, harvest; import engmeta.extract.engine",
    "star import": "from engmeta import *; import engmeta.harvest",
    "through the cli": "import engmeta.cli; from engmeta.harvest import harvest; import engmeta",
}


@pytest.mark.parametrize("order", sorted(IMPORT_ORDERS))
def test_functions_keep_their_names_in_every_import_order(order):
    check = (
        IMPORT_ORDERS[order]
        + "\nimport engmeta, types"
        + "\nfor name in ('extract', 'flatten', 'harvest'):"
        + "\n    value = getattr(engmeta, name)"
        + "\n    assert isinstance(value, types.FunctionType), (name, value)"
        + "\n    assert value.__module__.startswith('engmeta.' + name), (name, value.__module__)"
    )
    result = _python(check)
    assert result.returncode == 0, result.stderr


API = {
    "ENGMETA_NAMESPACE", "BlockField", "Checksum", "Compiler", "Component", "Conflict",
    "DatedEvent", "Description", "EngMetaDataset", "Environment", "ExtractionConfig",
    "ExtractionReport", "ExtractionRule", "FileInfo", "FileRef", "Finding", "FlattenReport",
    "ForceField", "FundingReference", "HarvestResult", "Identifier", "Instrument",
    "MetadataBlock", "MetadataPath", "Method", "ObservedSystem", "PathSegment",
    "PersistentIdentifier", "PersonOrOrganization", "ProcessingStep", "ProvDocument",
    "ReadResult", "RelatedIdentifier", "ResourceType", "RightsStatement", "Software",
    "SpatialResolution", "SuccessMarker", "TemporalResolution", "Title", "ValidationReport",
    "Variable", "extract", "flatten", "from_json", "from_xml", "get_path", "harvest", "merge",
    "parse_config", "parse_path", "serialize_blocks_json", "serialize_prov_n", "set_path",
    "to_json", "to_prov", "to_xml", "validate",
}


def test_star_import_gives_the_public_api():
    import engmeta

    namespace: dict = {}
    exec("from engmeta import *", namespace)
    namespace.pop("__builtins__")
    assert len(API) == 58
    assert set(engmeta.__all__) == set(namespace) == API
    assert API <= set(dir(engmeta))
    assert namespace["EngMetaDataset"] is engmeta.model.EngMetaDataset
    from engmeta.merging import Conflict  # declared in model, beside scalar_key

    assert namespace["Conflict"] is Conflict is engmeta.model.Conflict
    with pytest.raises(AttributeError):
        engmeta.no_such_name


def test_import_engmeta_loads_no_layer():
    result = _python(
        "import sys, engmeta; print(sorted(m for m in sys.modules if m.startswith('engmeta')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['engmeta']"


def _imported_modules(tree) -> list[str]:
    """The top-level module of every import and absolute from-import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_engmeta_imports_only_the_standard_library():
    """README's promise: engmeta needs nothing but Python itself."""
    outside = {
        (str(source.relative_to(SRC)), name)
        for source in sorted((SRC / "engmeta").rglob("*.py"))
        for name in _imported_modules(ast.parse(source.read_text(encoding="utf-8")))
        if name != "engmeta" and name not in sys.stdlib_module_names
    }
    assert not outside
    assert _imported_modules(ast.parse("import os.path, engmeta\nfrom xml.etree import E\n"
                                       "from . import model\n")) == ["os", "engmeta", "xml"]
