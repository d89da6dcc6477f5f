"""Metadata toolkit for computational-engineering research data.

Typed construction and validation of metadata documents, config-driven
extraction of metadata from simulation input/output/log files, conversion
of the processing history to PROV, and flattening into repository metadata
blocks.

Every name in ``__all__`` is importable from this package, and its module
loads on first use (PEP 562, ``_lazy``, which ``engmeta.extract`` uses for its
engine's names too): ``import engmeta`` costs almost nothing, a program that
only reads and validates documents never loads extraction, harvest or merge
code, and parsing a rule file loads no extraction engine.

``engmeta.extract``, ``engmeta.flatten`` and ``engmeta.harvest`` are the
functions, never the modules: ``from engmeta.extract import engine`` reaches
a module under them, while ``import engmeta.extract.engine as engine``
raises ``ImportError``, since ``as`` looks ``engine`` up on the function.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Public name -> defining module, grouped by module; the one list of the API.
_EXPORTS = {
    "canon": ("ENGMETA_NAMESPACE", "ReadResult", "from_json", "from_xml", "to_json", "to_xml"),
    "extract": ("ExtractionConfig", "ExtractionReport", "ExtractionRule", "extract", "parse_config"),
    "flatten": ("BlockField", "FlattenReport", "MetadataBlock", "flatten", "serialize_blocks_json"),
    "harvest": ("HarvestResult", "harvest"),
    "merging": ("merge",),
    "model": (
        "Checksum",
        "Compiler",
        "Component",
        "Conflict",
        "DatedEvent",
        "Description",
        "EngMetaDataset",
        "Environment",
        "FileInfo",
        "FileRef",
        "ForceField",
        "FundingReference",
        "Identifier",
        "Instrument",
        "Method",
        "ObservedSystem",
        "PersistentIdentifier",
        "PersonOrOrganization",
        "ProcessingStep",
        "RelatedIdentifier",
        "ResourceType",
        "RightsStatement",
        "Software",
        "SpatialResolution",
        "SuccessMarker",
        "TemporalResolution",
        "Title",
        "Variable",
    ),
    "paths": ("MetadataPath", "PathSegment", "get_path", "parse_path", "set_path"),
    "prov": ("ProvDocument", "serialize_prov_n", "to_prov"),
    "validation": ("Finding", "ValidationReport", "validate"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def _lazy(namespace: dict, origin: dict[str, str]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the module whose globals are
    ``namespace``: a name in ``origin`` loads the submodule it maps to on first use."""
    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f".{module}", namespace["__name__"]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _ORIGIN)


class _Package(ModuleType):
    """This package, keeping ``extract``, ``flatten`` and ``harvest`` functions.

    Loading a submodule binds it as an attribute of its package, which
    would replace the public function of the same name with the module. A
    submodule named after a public function is therefore not bound at all:
    the function stays, or ``__getattr__`` gives it on first use, so loading
    ``engmeta.extract`` to parse rules does not load its engine.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (isinstance(value, ModuleType) and _ORIGIN.get(name) == name):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
