"""Metadata toolkit for computational-engineering research data.

Typed construction and validation of metadata documents, config-driven
extraction of metadata from simulation input/output/log files, conversion
of the processing history to PROV, and flattening into repository metadata
blocks.
"""

from .canon import ENGMETA_NAMESPACE, ReadResult, from_json, from_xml, to_json, to_xml
from .extract import ExtractionConfig, ExtractionReport, ExtractionRule, extract, parse_config
from .flatten import (
    BlockField,
    FlattenReport,
    MetadataBlock,
    flatten,
    serialize_blocks_json,
)
from .harvest import HarvestResult, harvest
from .merging import Conflict, merge
from .model import (
    Checksum,
    Compiler,
    Component,
    DatedEvent,
    Description,
    EngMetaDataset,
    Environment,
    FileInfo,
    FileRef,
    ForceField,
    FundingReference,
    Identifier,
    Instrument,
    Method,
    ObservedSystem,
    PersistentIdentifier,
    PersonOrOrganization,
    ProcessingStep,
    RelatedIdentifier,
    ResourceType,
    RightsStatement,
    Software,
    SpatialResolution,
    SuccessMarker,
    TemporalResolution,
    Title,
    Variable,
)
from .paths import MetadataPath, PathSegment, get_path, parse_path, set_path
from .prov import ProvDocument, serialize_prov_n, to_prov
from .validation import Finding, ValidationReport, validate

__version__ = "0.1.0"

__all__ = [
    "ENGMETA_NAMESPACE",
    "BlockField",
    "Checksum",
    "Compiler",
    "Component",
    "Conflict",
    "DatedEvent",
    "Description",
    "EngMetaDataset",
    "Environment",
    "ExtractionConfig",
    "ExtractionReport",
    "ExtractionRule",
    "FileInfo",
    "FileRef",
    "Finding",
    "FlattenReport",
    "ForceField",
    "FundingReference",
    "HarvestResult",
    "Identifier",
    "Instrument",
    "MetadataBlock",
    "MetadataPath",
    "Method",
    "ObservedSystem",
    "PathSegment",
    "PersistentIdentifier",
    "PersonOrOrganization",
    "ProcessingStep",
    "ProvDocument",
    "ReadResult",
    "RelatedIdentifier",
    "ResourceType",
    "RightsStatement",
    "Software",
    "SpatialResolution",
    "SuccessMarker",
    "TemporalResolution",
    "Title",
    "ValidationReport",
    "Variable",
    "extract",
    "flatten",
    "from_json",
    "from_xml",
    "get_path",
    "harvest",
    "merge",
    "parse_config",
    "parse_path",
    "serialize_blocks_json",
    "serialize_prov_n",
    "set_path",
    "to_json",
    "to_prov",
    "to_xml",
    "validate",
]
