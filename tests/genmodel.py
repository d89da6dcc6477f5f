"""Seeded random generator for structurally valid datasets.

Documents come out partially filled on purpose (like real extraction
output) but never violate a structural rule, so they can drive round-trip,
merge and flatten properties deterministically.
"""

import random
import string
from decimal import Decimal

from engmeta.model import (
    STEP_TYPES,
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
from engmeta.validation import load_codes


def codes(list_name: str) -> tuple[str, ...]:
    return load_codes()[list_name]


_WORDS = (
    "shear", "viscosity", "binding", "energy", "droplet", "turbulent", "flow",
    "molecule", "sampling", "pressure", "coupling", "lattice", "Stuttgart",
    "Überschall", "boundary", "vortex", "nozzle", "plasma", "mesh", "solver",
)

# scalar text deliberately includes XML-hostile characters
_SPICE = ("a & b", "x < y", "q > p", 'quote "here"', "tabless text", "5 < 7 & 7 > 5")

_DATES = ("2019-05-24", "2018-11-02", "2020-01-31")
_DATETIMES = ("2019-05-24T18:30:00", "2019-06-01T08:00:00Z", "2020-02-29T23:59:59+01:00")

_DECIMALS = ("0.002", "300", "1.5", "12345.6789", "-42.25", "0.001")
_POSITIVE_DECIMALS = ("0.002", "0.5", "2", "10.75")


def _word(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(_SPICE)
    return rng.choice(_WORDS)


def _phrase(rng: random.Random, hi: int = 4) -> str:
    return " ".join(_word(rng) for _ in range(rng.randint(1, hi)))


def _maybe(rng: random.Random, chance: float, factory):
    return factory() if rng.random() < chance else None


def _hexdigest(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.hexdigits.lower()[:16]) for _ in range(length))


def _uri(rng: random.Random) -> str:
    return f"https://example.org/{rng.choice(_WORDS).lower()}/{rng.randint(1, 999)}"


def _scalar_value(rng: random.Random):
    pick = rng.randrange(4)
    if pick == 0:
        return _phrase(rng, 2)
    if pick == 1:
        return rng.randint(-1000, 100000)
    if pick == 2:
        return Decimal(rng.choice(_DECIMALS))
    return rng.random() < 0.5


def _variable(rng: random.Random, name: str) -> Variable:
    value = _maybe(rng, 0.9, lambda: _scalar_value(rng))
    uncertainty = None
    if isinstance(value, (int, Decimal)) and not isinstance(value, bool) and rng.random() < 0.3:
        uncertainty = Decimal(rng.choice(_POSITIVE_DECIMALS))
    return Variable(
        name=name,
        value=value,
        unit=_maybe(rng, 0.5, lambda: rng.choice(("K", "bar", "nm", "ps", "kJ/mol"))),
        uncertainty=uncertainty,
        symbol=_maybe(rng, 0.2, lambda: rng.choice("TpdvE")),
    )


def _variables(rng: random.Random, hi: int = 3) -> tuple:
    count = rng.randint(0, hi)
    names = rng.sample(_WORDS, count)  # unique within the list
    return tuple(_variable(rng, name) for name in names)


def _person(rng: random.Random) -> PersonOrOrganization:
    return PersonOrOrganization(
        name=_phrase(rng, 2),
        identifier=_maybe(rng, 0.4, lambda: Identifier(_hexdigest(rng, 8), "ORCID")),
        affiliation=_maybe(rng, 0.5, lambda: _phrase(rng, 3)),
        role=rng.choice(codes("roles")),
    )


def _file_ref(rng: random.Random) -> FileRef:
    return FileRef(
        name=f"{rng.choice(_WORDS).lower()}.{rng.choice(('trr', 'csv', 'log', 'xvg'))}",
        link=_maybe(rng, 0.3, lambda: _uri(rng)),
        pid=_maybe(rng, 0.2, lambda: f"10.18419/darus-{rng.randint(1, 9999):04d}"),
    )


def _file_info(rng: random.Random) -> FileInfo:
    algorithm, length = rng.choice((("MD5", 32), ("SHA-256", 64)))
    return FileInfo(
        filename=f"{rng.choice(_WORDS).lower()}.{rng.choice(('trr', 'csv', 'log'))}",
        link=_maybe(rng, 0.3, lambda: _uri(rng)),
        pid=_maybe(rng, 0.3, lambda: PersistentIdentifier(f"10.18419/x-{rng.randint(1, 999)}", "DOI")),
        checksum=_maybe(rng, 0.8, lambda: Checksum(_hexdigest(rng, length), algorithm)),
        sizeBytes=_maybe(rng, 0.8, lambda: rng.randint(0, 10**9)),
        fileType=_maybe(rng, 0.6, lambda: rng.choice(("trr", "csv", "log"))),
    )


def _software(rng: random.Random) -> Software:
    return Software(
        name=_phrase(rng, 2),
        softwareVersion=_maybe(rng, 0.7, lambda: f"{rng.randint(0, 9)}.{rng.randint(0, 20)}"),
        contributor=tuple(_person(rng) for _ in range(rng.randint(0, 2))),
        programmingLanguage=_maybe(rng, 0.4, lambda: rng.choice(("C++", "Fortran", "Python"))),
        operatingSystem=_maybe(rng, 0.3, lambda: "Linux"),
        url=_maybe(rng, 0.4, lambda: _uri(rng)),
        softwareSourceCode=_maybe(rng, 0.2, lambda: _uri(rng)),
        codeRepository=_maybe(rng, 0.2, lambda: _uri(rng)),
        citation=_maybe(rng, 0.2, lambda: _phrase(rng)),
        license=_maybe(rng, 0.3, lambda: RightsStatement(license="MIT")),
    )


def _environment(rng: random.Random) -> Environment:
    return Environment(
        name=_phrase(rng, 2),
        nodes=_maybe(rng, 0.8, lambda: rng.randint(1, 4096)),
        coresPerNode=_maybe(rng, 0.6, lambda: rng.choice((16, 24, 48, 128))),
        totalCores=_maybe(rng, 0.3, lambda: rng.randint(1, 100000)),
        compiler=_maybe(rng, 0.4, lambda: Compiler(name="gcc", flags="-O2")),
    )


def _step(rng: random.Random) -> ProcessingStep:
    return ProcessingStep(
        stepType=rng.choice(STEP_TYPES),
        date=_maybe(rng, 0.7, lambda: rng.choice(_DATES + _DATETIMES)),
        actor=_maybe(rng, 0.5, lambda: _person(rng)),
        inputs=tuple(_file_ref(rng) for _ in range(rng.randint(0, 3))),
        outputs=tuple(_file_ref(rng) for _ in range(rng.randint(0, 3))),
        method=_maybe(rng, 0.6, lambda: Method(name=_phrase(rng), parameters=_variables(rng, 2))),
        errorMethod=_maybe(rng, 0.2, lambda: Method(name=_phrase(rng))),
        software=tuple(_software(rng) for _ in range(rng.randint(0, 2))),
        instrument=tuple(
            Instrument(name=_phrase(rng, 2), description=_maybe(rng, 0.4, lambda: _phrase(rng)))
            for _ in range(rng.randint(0, 1))
        ),
        environment=_maybe(rng, 0.5, lambda: _environment(rng)),
        executionCommand=_maybe(rng, 0.4, lambda: f"mpirun -np {rng.randint(1, 512)} solver"),
    )


def _system(rng: random.Random) -> ObservedSystem:
    return ObservedSystem(
        description=_maybe(rng, 0.6, lambda: _phrase(rng, 6)),
        components=tuple(
            Component(
                name=_phrase(rng, 2),
                identifier=_maybe(rng, 0.5, lambda: "Cc1ccc(C)cc1"),
                forceField=_maybe(
                    rng, 0.4,
                    lambda: ForceField(name=_phrase(rng, 2), parameters=_variables(rng, 2)),
                ),
            )
            for _ in range(rng.randint(0, 3))
        ),
        boundaryConditions=tuple(_phrase(rng) for _ in range(rng.randint(0, 2))),
        controlledVariables=_variables(rng),
        measuredVariables=_variables(rng),
        parameters=_variables(rng),
        spatialResolution=_maybe(
            rng, 0.4,
            lambda: SpatialResolution(
                numberOfCells=rng.randint(0, 10**8),
                scale=Decimal(rng.choice(_DECIMALS)),
                scaleUnit="nm",
            ),
        ),
        temporalResolution=_maybe(
            rng, 0.5,
            lambda: TemporalResolution(
                numberOfTimesteps=rng.randint(0, 10**7),
                interval=Decimal(rng.choice(_POSITIVE_DECIMALS)),
                intervalUnit="ps",
            ),
        ),
    )


def random_dataset(rng: random.Random) -> EngMetaDataset:
    return EngMetaDataset(
        titles=tuple(
            Title(text=_phrase(rng), titleType=_maybe(rng, 0.5, lambda: rng.choice(codes("titleTypes"))))
            for _ in range(rng.randint(0, 3))
        ),
        descriptions=tuple(
            Description(text=_phrase(rng, 8), descriptionType=rng.choice(codes("descriptionTypes")))
            for _ in range(rng.randint(0, 2))
        ),
        dates=tuple(
            DatedEvent(date=rng.choice(_DATES + _DATETIMES), dateType=rng.choice(codes("dateTypes")))
            for _ in range(rng.randint(0, 2))
        ),
        keywords=tuple(_phrase(rng, 2) for _ in range(rng.randint(0, 4))),
        subject=tuple(_phrase(rng, 2) for _ in range(rng.randint(0, 2))),
        persons=tuple(_person(rng) for _ in range(rng.randint(0, 3))),
        fundingReferences=tuple(
            FundingReference(
                funderName=_phrase(rng, 2),
                awardNumber=_maybe(rng, 0.7, lambda: f"FDM-{rng.randint(1, 999):03d}"),
                funderIdentifierType=_maybe(rng, 0.5, lambda: rng.choice(codes("funderIdentifierTypes"))),
            )
            for _ in range(rng.randint(0, 2))
        ),
        project=_maybe(rng, 0.5, lambda: _phrase(rng, 2)),
        context=tuple(
            RelatedIdentifier(
                identifier=f"10.1000/ref-{rng.randint(1, 999)}",
                relatedIdentifierType=rng.choice(codes("relatedIdentifierTypes")),
                relationType=rng.choice(codes("relationTypes")),
            )
            for _ in range(rng.randint(0, 2))
        ),
        resourceType=_maybe(
            rng, 0.4, lambda: ResourceType(text=_phrase(rng, 2), resourceTypeGeneral="dataset")
        ),
        rightsStatement=_maybe(
            rng, 0.4,
            lambda: RightsStatement(license="CC-BY-4.0", accessConditions=_maybe(rng, 0.5, lambda: _phrase(rng))),
        ),
        worked=_maybe(
            rng, 0.4,
            lambda: SuccessMarker(success=rng.random() < 0.7, note=_maybe(rng, 0.5, lambda: _phrase(rng))),
        ),
        pid=_maybe(rng, 0.4, lambda: PersistentIdentifier(f"10.18419/darus-{rng.randint(1, 9999)}", "DOI")),
        files=tuple(_file_info(rng) for _ in range(rng.randint(0, 4))),
        storage=_maybe(rng, 0.3, lambda: _phrase(rng, 3)),
        format=_maybe(rng, 0.3, lambda: rng.choice(("binary trajectory", "tabular text"))),
        system=_maybe(rng, 0.7, lambda: _system(rng)),
        processingSteps=tuple(_step(rng) for _ in range(rng.randint(0, 4))),
    )


def dataset_pool(count: int, seed: int = 20190524):
    """Deterministic sequence of structurally valid random documents."""
    rng = random.Random(seed)
    return [random_dataset(rng) for _ in range(count)]
