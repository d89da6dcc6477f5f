"""Flattening the hierarchical document into repository metadata blocks.

Repositories index flat blocks of simple (key-value) and compound fields,
so the tree is broken into three blocks: ``citation`` (general descriptive
and technical metadata, including the success marker), ``process`` (the
union over all processing steps of software, methods, hardware, instruments
and execution commands, deduplicated and no longer tied to their step) and
``engMeta`` (the discipline-specific description of the observed system).

Flattening is lossy by design: step structure (dates, actors, input/output
linkage) is preserved by the PROV sidecar instead. The FlattenReport
accounts for every populated leaf of the input: each one is either mapped
into a block field or listed as dropped with that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .canon import indented_json
from .errors import FlattenStructureError
from .model import (
    EngMetaDataset,
    Method,
    PersonOrOrganization,
    Software,
    Variable,
    scalar_key,
    scalar_to_text,
)

BLOCK_NAMES = ("citation", "process", "engMeta")
DROP_REASON = "preserved via PROV sidecar"


@dataclass(frozen=True)
class BlockField:
    typeName: str
    multiple: bool
    typeClass: str  # "primitive" | "compound"
    value: object


@dataclass(frozen=True)
class MetadataBlock:
    blockName: str
    fields: tuple[BlockField, ...] = ()


@dataclass(frozen=True)
class MappedPath:
    path: str
    field: str  # "<block>.<typeName>"


@dataclass(frozen=True)
class DroppedPath:
    path: str
    reason: str


@dataclass(frozen=True)
class FlattenReport:
    mappedPaths: tuple[MappedPath, ...] = ()
    droppedPaths: tuple[DroppedPath, ...] = ()


class _BlockBuilder:
    """Collects fields for one block and records the source of every leaf."""

    def __init__(self, block_name: str, report: "_ReportBuilder"):
        self.block_name = block_name
        self.report = report
        self._primitives: dict[str, list] = {}
        self._single_primitives: dict[str, object] = {}
        self._compounds: dict[str, list[dict]] = {}
        self._single_compounds: dict[str, dict] = {}
        self._deduplicated: set[str] = set()  # multi-primitive fields without repeats
        self._order: dict[tuple[str, str], None] = {}  # (typeName, shape), first use order

    def _note_order(self, type_name: str, shape: str) -> None:
        self._order.setdefault((type_name, shape))

    def claim(self, type_name: str, path: str, value):
        if value is not None:
            self.report.mapped(path, f"{self.block_name}.{type_name}")
        return value

    def primitive(self, type_name: str, path: str, value) -> None:
        if value is None:
            return
        self.claim(type_name, path, value)
        self._single_primitives[type_name] = value
        self._note_order(type_name, "single-primitive")

    def primitive_entry(self, type_name: str, path: str, value, *, dedup: bool = False) -> None:
        if value is None:
            return
        self.claim(type_name, path, value)
        self._primitives.setdefault(type_name, []).append(value)
        if dedup:
            self._deduplicated.add(type_name)
        self._note_order(type_name, "multi-primitive")

    def compound_entry(self, type_name: str, submap: dict) -> None:
        """Add one compound instance; exact duplicates collapse in build()."""
        cleaned = {key: value for key, value in submap.items() if value is not None}
        if not cleaned:
            return
        self._compounds.setdefault(type_name, []).append(cleaned)
        self._note_order(type_name, "multi-compound")

    def single_compound(self, type_name: str, submap: dict) -> None:
        cleaned = {key: value for key, value in submap.items() if value is not None}
        if not cleaned:
            return
        self._single_compounds[type_name] = cleaned
        self._note_order(type_name, "single-compound")

    def build(self) -> MetadataBlock:
        fields = []
        for type_name, shape in self._order:
            if shape == "single-primitive":
                fields.append(BlockField(type_name, False, "primitive", self._single_primitives[type_name]))
            elif shape == "multi-primitive":
                values = self._primitives[type_name]
                if type_name in self._deduplicated:
                    values = _unique(values, scalar_key)
                fields.append(BlockField(type_name, True, "primitive", list(values)))
            elif shape == "single-compound":
                fields.append(BlockField(type_name, False, "compound", self._single_compounds[type_name]))
            else:
                fields.append(BlockField(type_name, True, "compound", _unique(self._compounds[type_name], _compound_key)))
        return MetadataBlock(self.block_name, tuple(fields))


def _unique(entries: list, key) -> list:
    """The entries in order, dropping exact duplicates of earlier ones.

    Duplicates are judged type-strictly through ``key``: ``True`` and ``1``
    (or ``300`` and ``Decimal(300)``) serialize differently, so both are
    kept. Keys are built once all entries exist and freed on return, rather
    than held for the whole flattening.
    """
    seen = set()
    kept = []
    for entry in entries:
        entry_key = key(entry)
        if entry_key not in seen:
            seen.add(entry_key)
            kept.append(entry)
    return kept


def _compound_key(submap: dict) -> tuple:
    return tuple(sorted((name, scalar_key(value)) for name, value in submap.items()))


class _ReportBuilder:
    def __init__(self) -> None:
        self._mapped: list[MappedPath] = []
        self._dropped: list[DroppedPath] = []

    def mapped(self, path: str, field: str) -> None:
        self._mapped.append(MappedPath(path, field))

    def dropped(self, path: str, value) -> None:
        if value is not None:
            self._dropped.append(DroppedPath(path, DROP_REASON))

    def build(self) -> FlattenReport:
        return FlattenReport(tuple(self._mapped), tuple(self._dropped))


def flatten(dataset: EngMetaDataset) -> tuple[list[MetadataBlock], FlattenReport]:
    """Break the document into repository blocks plus a loss accounting."""
    report = _ReportBuilder()
    citation = _BlockBuilder("citation", report)
    process = _BlockBuilder("process", report)
    discipline = _BlockBuilder("engMeta", report)

    _fill_citation(dataset, citation)
    _fill_process(dataset, process, report)
    _fill_discipline(dataset, discipline)

    blocks = [citation.build(), process.build(), discipline.build()]
    return blocks, report.build()


def _person_submap(block: _BlockBuilder, type_name: str, path: str,
                   person: PersonOrOrganization, extra: dict | None = None) -> dict:
    submap = dict(extra or {})
    submap["name"] = block.claim(type_name, f"{path}.name", person.name)
    if person.identifier is not None:
        submap["identifierValue"] = block.claim(
            type_name, f"{path}.identifier.value", person.identifier.value
        )
        submap["identifierScheme"] = block.claim(
            type_name, f"{path}.identifier.scheme", person.identifier.scheme
        )
    submap["affiliation"] = block.claim(type_name, f"{path}.affiliation", person.affiliation)
    submap["role"] = block.claim(type_name, f"{path}.role", person.role)
    return submap


def _variable_submap(block: _BlockBuilder, type_name: str, path: str,
                     variable: Variable, extra: dict | None = None) -> dict:
    submap = dict(extra or {})
    submap["name"] = block.claim(type_name, f"{path}.name", variable.name)
    submap["value"] = block.claim(type_name, f"{path}.value", variable.value)
    submap["unit"] = block.claim(type_name, f"{path}.unit", variable.unit)
    submap["uncertainty"] = block.claim(type_name, f"{path}.uncertainty", variable.uncertainty)
    submap["symbol"] = block.claim(type_name, f"{path}.symbol", variable.symbol)
    return submap


def _fill_citation(ds: EngMetaDataset, block: _BlockBuilder) -> None:
    for i, title in enumerate(ds.titles):
        block.compound_entry("title", {
            "text": block.claim("title", f"title[{i}].text", title.text),
            "titleType": block.claim("title", f"title[{i}].titleType", title.titleType),
        })
    for i, description in enumerate(ds.descriptions):
        block.compound_entry("description", {
            "text": block.claim("description", f"description[{i}].text", description.text),
            "descriptionType": block.claim(
                "description", f"description[{i}].descriptionType", description.descriptionType
            ),
        })
    for i, date in enumerate(ds.dates):
        block.compound_entry("date", {
            "date": block.claim("date", f"date[{i}].date", date.date),
            "dateType": block.claim("date", f"date[{i}].dateType", date.dateType),
        })
    for i, keyword in enumerate(ds.keywords):
        block.primitive_entry("keyword", f"keyword[{i}]", keyword)
    for i, subject in enumerate(ds.subject):
        block.primitive_entry("subject", f"subject[{i}]", subject)
    for i, person in enumerate(ds.persons):
        block.compound_entry("person", _person_submap(block, "person", f"person[{i}]", person))
    for i, funding in enumerate(ds.fundingReferences):
        prefix = f"fundingReference[{i}]"
        block.compound_entry("fundingReference", {
            "funderName": block.claim("fundingReference", f"{prefix}.funderName", funding.funderName),
            "awardNumber": block.claim("fundingReference", f"{prefix}.awardNumber", funding.awardNumber),
            "funderIdentifierType": block.claim(
                "fundingReference", f"{prefix}.funderIdentifierType", funding.funderIdentifierType
            ),
        })
    block.primitive("project", "project", ds.project)
    for i, related in enumerate(ds.context):
        prefix = f"context[{i}]"
        block.compound_entry("context", {
            "identifier": block.claim("context", f"{prefix}.identifier", related.identifier),
            "relatedIdentifierType": block.claim(
                "context", f"{prefix}.relatedIdentifierType", related.relatedIdentifierType
            ),
            "relationType": block.claim("context", f"{prefix}.relationType", related.relationType),
        })
    if ds.resourceType is not None:
        block.single_compound("resourceType", {
            "text": block.claim("resourceType", "resourceType.text", ds.resourceType.text),
            "resourceTypeGeneral": block.claim(
                "resourceType", "resourceType.resourceTypeGeneral", ds.resourceType.resourceTypeGeneral
            ),
        })
    if ds.rightsStatement is not None:
        block.single_compound("rightsStatement", {
            "license": block.claim("rightsStatement", "rightsStatement.license", ds.rightsStatement.license),
            "accessConditions": block.claim(
                "rightsStatement", "rightsStatement.accessConditions", ds.rightsStatement.accessConditions
            ),
        })
    if ds.worked is not None:
        block.primitive("success", "worked.success", ds.worked.success)
        block.primitive("successNote", "worked.note", ds.worked.note)
    if ds.pid is not None:
        block.single_compound("pid", {
            "value": block.claim("pid", "pid.value", ds.pid.value),
            "scheme": block.claim("pid", "pid.scheme", ds.pid.scheme),
        })
    for i, info in enumerate(ds.files):
        prefix = f"file[{i}]"
        submap = {
            "filename": block.claim("file", f"{prefix}.filename", info.filename),
            "link": block.claim("file", f"{prefix}.link", info.link),
            "sizeBytes": block.claim("file", f"{prefix}.sizeBytes", info.sizeBytes),
            "fileType": block.claim("file", f"{prefix}.fileType", info.fileType),
        }
        if info.pid is not None:
            submap["pidValue"] = block.claim("file", f"{prefix}.pid.value", info.pid.value)
            submap["pidScheme"] = block.claim("file", f"{prefix}.pid.scheme", info.pid.scheme)
        if info.checksum is not None:
            submap["checksumAlgorithm"] = block.claim(
                "file", f"{prefix}.checksum.algorithm", info.checksum.algorithm
            )
            submap["checksumDigest"] = block.claim(
                "file", f"{prefix}.checksum.digest", info.checksum.digest
            )
        block.compound_entry("file", submap)
    block.primitive("storage", "storage", ds.storage)
    block.primitive("format", "format", ds.format)


def _software_submap(block: _BlockBuilder, path: str, software: Software) -> dict:
    scalars = (
        "name", "softwareVersion", "programmingLanguage", "operatingSystem", "url",
        "softwareSourceCode", "softwareApplication", "codeRepository", "citation",
        "referencePublication",
    )
    submap = {
        attr: block.claim("software", f"{path}.{attr}", getattr(software, attr))
        for attr in scalars
    }
    if software.license is not None:
        submap["license"] = block.claim("software", f"{path}.license.license", software.license.license)
        submap["accessConditions"] = block.claim(
            "software", f"{path}.license.accessConditions", software.license.accessConditions
        )
    return submap


def _method_entries(block: _BlockBuilder, path: str, method: Method, family: str) -> None:
    block.compound_entry(family, {
        "name": block.claim(family, f"{path}.name", method.name),
    })
    parameter_family = f"{family}Parameter"
    for j, parameter in enumerate(method.parameters):
        block.compound_entry(parameter_family, _variable_submap(
            block, parameter_family, f"{path}.parameters[{j}]", parameter,
            extra={family: method.name},
        ))


def _fill_process(ds: EngMetaDataset, block: _BlockBuilder, report: _ReportBuilder) -> None:
    for i, step in enumerate(ds.processingSteps):
        prefix = f"processingStep[{i}]"
        block.primitive_entry("stepType", f"{prefix}.stepType", step.stepType, dedup=True)

        # step structure is not searchable in flat blocks; the PROV sidecar
        # keeps it
        report.dropped(f"{prefix}.date", step.date)
        if step.actor is not None:
            actor_prefix = f"{prefix}.actor"
            report.dropped(f"{actor_prefix}.name", step.actor.name)
            if step.actor.identifier is not None:
                report.dropped(f"{actor_prefix}.identifier.value", step.actor.identifier.value)
                report.dropped(f"{actor_prefix}.identifier.scheme", step.actor.identifier.scheme)
            report.dropped(f"{actor_prefix}.affiliation", step.actor.affiliation)
            report.dropped(f"{actor_prefix}.role", step.actor.role)
        for element, refs in (("input", step.inputs), ("output", step.outputs)):
            for j, ref in enumerate(refs):
                ref_prefix = f"{prefix}.{element}[{j}]"
                report.dropped(f"{ref_prefix}.name", ref.name)
                report.dropped(f"{ref_prefix}.link", ref.link)
                report.dropped(f"{ref_prefix}.pid", ref.pid)

        if step.method is not None:
            _method_entries(block, f"{prefix}.method", step.method, "method")
        if step.errorMethod is not None:
            _method_entries(block, f"{prefix}.errorMethod", step.errorMethod, "errorMethod")

        for j, software in enumerate(step.software):
            software_prefix = f"{prefix}.software[{j}]"
            block.compound_entry("software", _software_submap(block, software_prefix, software))
            for k, contributor in enumerate(software.contributor):
                block.compound_entry("softwareContributor", _person_submap(
                    block, "softwareContributor",
                    f"{software_prefix}.contributor[{k}]", contributor,
                    extra={"software": software.name},
                ))

        for j, instrument in enumerate(step.instrument):
            instrument_prefix = f"{prefix}.instrument[{j}]"
            block.compound_entry("instrument", {
                "name": block.claim("instrument", f"{instrument_prefix}.name", instrument.name),
                "description": block.claim(
                    "instrument", f"{instrument_prefix}.description", instrument.description
                ),
                "identifier": block.claim(
                    "instrument", f"{instrument_prefix}.identifier", instrument.identifier
                ),
            })

        if step.environment is not None:
            environment_prefix = f"{prefix}.environment"
            submap = {
                attr: block.claim("environment", f"{environment_prefix}.{attr}",
                                  getattr(step.environment, attr))
                for attr in ("name", "nodes", "coresPerNode", "totalCores")
            }
            if step.environment.compiler is not None:
                submap["compilerName"] = block.claim(
                    "environment", f"{environment_prefix}.compiler.name",
                    step.environment.compiler.name,
                )
                submap["compilerFlags"] = block.claim(
                    "environment", f"{environment_prefix}.compiler.flags",
                    step.environment.compiler.flags,
                )
            block.compound_entry("environment", submap)

        block.primitive_entry(
            "executionCommand", f"{prefix}.executionCommand", step.executionCommand, dedup=True
        )


def _fill_discipline(ds: EngMetaDataset, block: _BlockBuilder) -> None:
    system = ds.system
    if system is None:
        return
    block.primitive("systemDescription", "system.description", system.description)

    for i, component in enumerate(system.components):
        prefix = f"system.components[{i}]"
        submap = {
            "name": block.claim("component", f"{prefix}.name", component.name),
            "identifier": block.claim("component", f"{prefix}.identifier", component.identifier),
        }
        if component.forceField is not None:
            submap["forceField"] = block.claim(
                "component", f"{prefix}.forceField.name", component.forceField.name
            )
            for j, parameter in enumerate(component.forceField.parameters):
                block.compound_entry("forceFieldParameter", _variable_submap(
                    block, "forceFieldParameter",
                    f"{prefix}.forceField.parameters[{j}]", parameter,
                    extra={"forceField": component.forceField.name},
                ))
        block.compound_entry("component", submap)

    for i, condition in enumerate(system.boundaryConditions):
        block.primitive_entry("boundaryCondition", f"system.boundaryConditions[{i}]", condition)

    for attr, family in (
        ("controlledVariables", "controlledVariable"),
        ("measuredVariables", "measuredVariable"),
        ("parameters", "parameter"),
    ):
        for i, variable in enumerate(getattr(system, attr)):
            block.compound_entry(family, _variable_submap(
                block, family, f"system.{attr}[{i}]", variable
            ))

    if system.spatialResolution is not None:
        for attr in ("numberOfCells", "scale", "scaleUnit"):
            block.primitive(attr, f"system.spatialResolution.{attr}",
                            getattr(system.spatialResolution, attr))
    if system.temporalResolution is not None:
        for attr in ("numberOfTimesteps", "interval", "intervalUnit"):
            block.primitive(attr, f"system.temporalResolution.{attr}",
                            getattr(system.temporalResolution, attr))


# --- JSON serialization ----------------------------------------------------

def _primitive_to_json(value):
    if isinstance(value, Decimal):
        return scalar_to_text(value)
    if isinstance(value, (bool, int, str)):
        return value
    raise FlattenStructureError(
        f"compound fields may contain only primitive sub-fields, got {type(value).__name__}"
    )


def _field_to_obj(field: BlockField) -> dict:
    if field.typeClass == "primitive":
        if field.multiple:
            value = [_primitive_to_json(item) for item in field.value]
        else:
            value = _primitive_to_json(field.value)
    elif field.typeClass == "compound":
        instances = field.value if field.multiple else [field.value]
        rendered = []
        for submap in instances:
            if not isinstance(submap, dict):
                raise FlattenStructureError("compound values must be maps of sub-fields")
            rendered.append({key: _primitive_to_json(item) for key, item in submap.items()})
        value = rendered if field.multiple else rendered[0]
    else:
        raise FlattenStructureError(f"unknown typeClass {field.typeClass!r}")
    return {
        "typeName": field.typeName,
        "multiple": field.multiple,
        "typeClass": field.typeClass,
        "value": value,
    }


def serialize_blocks_json(blocks: list[MetadataBlock], report: FlattenReport) -> str:
    """Deterministic repository-ingest JSON for the blocks plus the report."""
    obj: dict[str, object] = {}
    for block in blocks:
        if block.blockName not in BLOCK_NAMES:
            raise FlattenStructureError(f"unknown block name {block.blockName!r}")
        obj[block.blockName] = [_field_to_obj(field) for field in block.fields]
    obj["_flattenReport"] = {
        "mapped": [{"path": m.path, "field": m.field} for m in report.mappedPaths],
        "dropped": [{"path": d.path, "reason": d.reason} for d in report.droppedPaths],
    }
    return indented_json(obj) + "\n"
