"""A structurally valid document in which every field of every node class is set.

The worked corpus exercises only part of the vocabulary; this document
reaches every element and attribute name, every placement (child, attribute,
text content) and all four tagged value types, so its committed
serializations pin the complete canonical form.
"""

from decimal import Decimal

from engmeta.model import (
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


def _person(name: str, role: str) -> PersonOrOrganization:
    return PersonOrOrganization(
        name=name,
        identifier=Identifier(value=f"0000-0002-{len(name):04d}-0001", scheme="ORCID"),
        affiliation="University of Stuttgart",
        role=role,
    )


def every_field_dataset() -> EngMetaDataset:
    """The document; deterministic, and every field holds a value."""
    mdp = FileRef(name="md.mdp", link="run/md.mdp", pid="hdl:21.11102/md-mdp")
    trajectory = FileRef(name="traj.trr", link="run/traj.trr", pid="hdl:21.11102/traj")
    return EngMetaDataset(
        titles=(Title(text="Binding energies of <small> molecules", titleType="main"),),
        descriptions=(
            Description(text="Shear viscosity & binding energy study", descriptionType="abstract"),
        ),
        dates=(DatedEvent(date="2019-05-24", dateType="created"),),
        keywords=("molecular dynamics", "viscosity"),
        subject=("Engineering Sciences",),
        persons=(_person("Doe, Jane", "author"), _person("Roe, Richard", "dataCurator")),
        fundingReferences=(
            FundingReference(
                funderName="German Research Foundation",
                awardNumber="EXC 2075",
                funderIdentifierType="crossrefFunderId",
            ),
        ),
        project="SimTech",
        context=(
            RelatedIdentifier(
                identifier="10.1000/xyz123",
                relatedIdentifierType="doi",
                relationType="isSupplementTo",
            ),
        ),
        resourceType=ResourceType(text="Simulation output", resourceTypeGeneral="dataset"),
        rightsStatement=RightsStatement(license="CC-BY-4.0", accessConditions="open access"),
        worked=SuccessMarker(success=True, note='converged "cleanly"'),
        pid=PersistentIdentifier(value="10.18419/darus-1", scheme="DOI"),
        files=(
            FileInfo(
                filename="run/md.log",
                link="https://example.org/files/md.log",
                pid=PersistentIdentifier(value="hdl:21.11102/md-log", scheme="Handle"),
                checksum=Checksum(digest="0" * 64, algorithm="SHA-256"),
                sizeBytes=123456,
                fileType="log",
            ),
        ),
        storage="tape archive",
        format="text/plain",
        system=ObservedSystem(
            description="Water box with one solute",
            components=(
                Component(
                    name="SOL",
                    identifier="CHEBI:15377",
                    forceField=ForceField(
                        name="TIP4P",
                        parameters=(Variable(name="sigma", value=Decimal("0.315365"), unit="nm"),),
                    ),
                ),
            ),
            boundaryConditions=("periodic", "x < y & z"),
            controlledVariables=(
                Variable(
                    name="temperature",
                    value=Decimal("300.5"),
                    unit="K",
                    uncertainty=Decimal("0.25"),
                    symbol="T",
                ),
            ),
            measuredVariables=(Variable(name="steps", value=5000000, unit="1", symbol="n"),),
            parameters=(
                Variable(name="constraints", value="h-bonds"),
                Variable(name="continuation", value=False),
            ),
            spatialResolution=SpatialResolution(
                numberOfCells=1000, scale=Decimal("0.1"), scaleUnit="nm"
            ),
            temporalResolution=TemporalResolution(
                numberOfTimesteps=5000000, interval=Decimal("0.002"), intervalUnit="ps"
            ),
        ),
        processingSteps=(
            ProcessingStep(
                stepType="data generation",
                date="2019-05-24T18:30:00",
                actor=_person("Doe, Jane", "researcher"),
                inputs=(mdp,),
                outputs=(trajectory,),
                method=Method(
                    name="molecular dynamics",
                    parameters=(Variable(name="integrator", value="md"),),
                ),
                errorMethod=Method(
                    name="block averaging",
                    parameters=(Variable(name="blocks", value=10),),
                ),
                software=(
                    Software(
                        name="GROMACS",
                        softwareVersion="2019.3",
                        contributor=(_person("GROMACS developers", "producer"),),
                        programmingLanguage="C++",
                        operatingSystem="Linux",
                        url="https://www.gromacs.org",
                        softwareSourceCode="https://gitlab.com/gromacs/gromacs",
                        softwareApplication="https://www.gromacs.org/Downloads",
                        codeRepository="https://gitlab.com/gromacs/gromacs.git",
                        citation="Abraham et al., SoftwareX 1-2 (2015) 19-25",
                        referencePublication="10.1016/j.softx.2015.06.001",
                        license=RightsStatement(license="LGPL-2.1", accessConditions="free"),
                    ),
                ),
                instrument=(
                    Instrument(
                        name="Hazel Hen",
                        description="Cray XC40 at HLRS",
                        identifier="hlrs-hazelhen",
                    ),
                ),
                environment=Environment(
                    name="hazelhen",
                    nodes=4,
                    coresPerNode=24,
                    totalCores=96,
                    compiler=Compiler(name="gcc 8.3", flags="-O3 -march=native"),
                ),
                executionCommand="gmx mdrun -deffnm md",
            ),
        ),
    )
