"""Crosswalk from processing steps to a PROV document and PROV-N text.

Each processing step becomes an activity; the step's actor becomes an
agent tied in with wasAssociatedWith; inputs, methods, instruments,
software, the computing environment and the execution command become
entities connected with used; outputs become entities connected with
wasGeneratedBy. Files are identified by locator (pid, else link, else
name), so a file written by one step and read by a later one is a single
entity and the chain is visible in the graph.
"""

from __future__ import annotations

import hashlib
import re
from typing import NamedTuple

from .errors import ProvError
from .isodates import is_iso_date_or_datetime
from .model import PROV_STEP_FIELDS, EngMetaDataset, FileRef, ProcessingStep, schema

DEFAULT_BASE_URI = "https://engmeta.example.org/prov#"
PREFIX = "ex"

# used(activity, entity), wasGeneratedBy(entity, activity),
# wasAssociatedWith(activity, agent)
RELATION_TYPES = ("used", "wasGeneratedBy", "wasAssociatedWith")

# The step fields that become used entities: every field but those with a
# place of their own (the activity's type and its PROV structure).
_USED_FIELDS = tuple(
    spec.attr for spec in schema(ProcessingStep)
    if spec.attr != "stepType" and spec.attr not in PROV_STEP_FIELDS
)
# a used node's label: the first of these it sets, else its kind
_LABEL_FIELDS = ("name", "url", "softwareSourceCode")
_KIND_LABELS = {"errorMethod": "error method"}


class Activity(NamedTuple):
    id: str
    date: str | None = None
    stepType: str | None = None


class Agent(NamedTuple):
    id: str
    name: str | None = None
    identifier: str | None = None


class Entity(NamedTuple):
    id: str
    kind: str
    label: str


class Relation(NamedTuple):
    type: str
    subject: str
    object: str


class ProvDocument(NamedTuple):
    activities: tuple[Activity, ...] = ()
    agents: tuple[Agent, ...] = ()
    entities: tuple[Entity, ...] = ()
    relations: tuple[Relation, ...] = ()


def _stable_id(prefix: str, identity: str) -> str:
    digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]
    return f"{prefix}_{digest}"


class _Builder:
    def __init__(self) -> None:
        self.activities: list[Activity] = []
        self.agents: dict[tuple, Agent] = {}
        self.entities: dict[tuple[str, str], Entity] = {}
        self.relations: dict[Relation, None] = {}  # insertion-ordered and free of repeats

    def entity(self, kind: str, identity: str, label: str) -> Entity:
        key = (kind, identity)
        found = self.entities.get(key)
        if found is None:
            found = Entity(_stable_id(kind, identity), kind, label)
            self.entities[key] = found
        return found

    def agent(self, name: str | None, identifier: str | None) -> Agent:
        key = (name, identifier)
        found = self.agents.get(key)
        if found is None:
            identity = f"{name or ''}\x1f{identifier or ''}"
            found = Agent(_stable_id("agent", identity), name, identifier)
            self.agents[key] = found
        return found

    def relate(self, relation_type: str, subject: str, object_id: str) -> None:
        self.relations[Relation(relation_type, subject, object_id)] = None


def _file_entity(builder: _Builder, ref: FileRef) -> Entity:
    locator = ref.locator()  # a stored FileRef is never empty, so it has one
    return builder.entity("file", locator, ref.name or locator)


def _used_entity(builder: _Builder, kind: str, used) -> Entity:
    if type(used) is str:  # the execution command
        return builder.entity(kind, used, used)
    labels = (getattr(used, field, None) for field in _LABEL_FIELDS)
    label = next((text for text in labels if text), None)
    return builder.entity(kind, repr(used), label or _KIND_LABELS.get(kind, kind))


def to_prov(dataset: EngMetaDataset) -> ProvDocument:
    """Convert the document's processing steps into a provenance graph."""
    builder = _Builder()
    for i, step in enumerate(dataset.processingSteps):
        activity = Activity(f"act_{i}", step.date, step.stepType)
        builder.activities.append(activity)

        if step.actor is not None:
            identifier = step.actor.identifier.value if step.actor.identifier else None
            agent = builder.agent(step.actor.name, identifier)
            builder.relate("wasAssociatedWith", activity.id, agent.id)

        for ref in step.inputs:
            builder.relate("used", activity.id, _file_entity(builder, ref).id)
        for kind in _USED_FIELDS:
            value = getattr(step, kind)
            if not isinstance(value, tuple):
                value = () if value is None else (value,)
            for used in value:
                entity = _used_entity(builder, kind, used)
                builder.relate("used", activity.id, entity.id)

        for ref in step.outputs:
            builder.relate("wasGeneratedBy", _file_entity(builder, ref).id, activity.id)

    return ProvDocument(
        tuple(builder.activities),
        tuple(builder.agents.values()),
        tuple(builder.entities.values()),
        tuple(builder.relations),
    )


# an xsd:dateTime, which PROV-N writes unquoted: YYYY-MM-DDThh:mm:ss[.s+][Z|(+|-)hh:mm]
_XSD_DATETIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]+)?"
    r"(?:Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
)


def _quote(text: str) -> str:
    """A PROV-N string literal, which may hold no raw LF or CR."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped.replace("\r", "\\r") + '"'


def _end_time(date: str | None) -> str:
    """The activity's end-time slot: the date when it is an ISO date-time in
    xsd:dateTime form, else "-"."""
    if date is None or not _XSD_DATETIME.fullmatch(date) or not is_iso_date_or_datetime(date):
        return "-"
    return date


def _attr_list(pairs: list[tuple[str, str]]) -> str:
    return "[" + ", ".join(f"{key}={_quote(value)}" for key, value in pairs) + "]"


def serialize_prov_n(doc: ProvDocument, base_uri: str = DEFAULT_BASE_URI) -> str:
    """Render the document in the human-readable PROV notation.

    Statements are ordered activities, agents, entities, relations; each
    group is sorted, so equal documents serialize identically.
    """
    _check_referential_integrity(doc)

    statements: list[str] = []
    for activity in sorted(doc.activities, key=lambda a: a.id):
        attrs = []
        if activity.stepType is not None:
            attrs.append((f"{PREFIX}:stepType", activity.stepType))
        if activity.date is not None:
            attrs.append((f"{PREFIX}:date", activity.date))
        suffix = f", {_attr_list(attrs)}" if attrs else ""
        end_time = _end_time(activity.date)
        statements.append(f"activity({PREFIX}:{activity.id}, -, {end_time}{suffix})")

    for agent in sorted(doc.agents, key=lambda a: a.id):
        attrs = []
        if agent.name is not None:
            attrs.append(("prov:label", agent.name))
        if agent.identifier is not None:
            attrs.append((f"{PREFIX}:identifier", agent.identifier))
        suffix = f", {_attr_list(attrs)}" if attrs else ""
        statements.append(f"agent({PREFIX}:{agent.id}{suffix})")

    for entity in sorted(doc.entities, key=lambda e: e.id):
        attrs = [("prov:label", entity.label), (f"{PREFIX}:kind", entity.kind)]
        statements.append(f"entity({PREFIX}:{entity.id}, {_attr_list(attrs)})")

    rank = {name: i for i, name in enumerate(RELATION_TYPES)}
    for relation in sorted(doc.relations, key=lambda r: (rank[r.type], r.subject, r.object)):
        statements.append(f"{relation.type}({PREFIX}:{relation.subject}, {PREFIX}:{relation.object})")

    if not statements:
        return "document\nendDocument\n"
    lines = ["document", f"prefix {PREFIX} <{base_uri}>", ""]
    lines.extend(statements)
    lines.append("endDocument")
    return "\n".join(lines) + "\n"


def _check_referential_integrity(doc: ProvDocument) -> None:
    activity_ids = {a.id for a in doc.activities}
    agent_ids = {a.id for a in doc.agents}
    entity_ids = {e.id for e in doc.entities}
    for relation in doc.relations:
        if relation.type == "used":
            ok = relation.subject in activity_ids and relation.object in entity_ids
        elif relation.type == "wasGeneratedBy":
            ok = relation.subject in entity_ids and relation.object in activity_ids
        elif relation.type == "wasAssociatedWith":
            ok = relation.subject in activity_ids and relation.object in agent_ids
        else:
            raise ProvError(f"unknown relation type {relation.type!r}")
        if not ok:
            raise ProvError(
                f"dangling endpoint in {relation.type}({relation.subject}, {relation.object})"
            )
