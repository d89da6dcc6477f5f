from decimal import Decimal

import pytest

from engmeta.errors import PathTargetError
from engmeta.model import (
    Component,
    EngMetaDataset,
    Environment,
    FileRef,
    ObservedSystem,
    ProcessingStep,
    ResourceType,
    SuccessMarker,
    TemporalResolution,
    Title,
    Variable,
    decimal_to_text,
    scalar_to_text,
    scalars_equal,
)
from engmeta.paths import set_path


def test_empty_dataset_is_empty():
    dataset = EngMetaDataset()
    assert dataset.is_empty()
    assert dataset.titles == ()
    assert dataset.system is None


def test_lists_become_tuples():
    dataset = EngMetaDataset(titles=[Title(text="a")], keywords=["x", "y"])
    assert isinstance(dataset.titles, tuple)
    assert dataset.keywords == ("x", "y")


def test_empty_string_rejected():
    with pytest.raises(ValueError):
        Title(text="")
    with pytest.raises(ValueError):
        EngMetaDataset(keywords=("ok", ""))


def test_wrong_scalar_type_rejected():
    with pytest.raises(TypeError):
        TemporalResolution(numberOfTimesteps="5000000")
    with pytest.raises(TypeError):
        TemporalResolution(numberOfTimesteps=True)  # bools are not counts
    with pytest.raises(TypeError):
        Title(text=42)


def test_int_promotes_to_decimal_fields():
    resolution = TemporalResolution(interval=2)
    assert resolution.interval == Decimal(2)
    assert isinstance(resolution.interval, Decimal)


def test_tagged_value_accepts_all_scalar_types():
    for value in ("text", 7, True, Decimal("1.5")):
        assert Variable(name="x", value=value).value == value
    with pytest.raises(TypeError):
        Variable(name="x", value=1.5)  # floats are not exact; use Decimal


def test_empty_nodes_collapse():
    dataset = EngMetaDataset(system=ObservedSystem())
    assert dataset.system is None
    step = ProcessingStep(inputs=(FileRef(),), environment=Environment())
    assert step.inputs == ()
    assert step.environment is None
    assert step.is_empty()


def test_nested_empty_collapse_cascades():
    system = ObservedSystem(components=(Component(),))
    assert system.is_empty()
    dataset = EngMetaDataset(system=system, worked=SuccessMarker())
    assert dataset.is_empty()


def test_value_objects_compare_by_content():
    assert Title(text="a") == Title(text="a")
    assert Title(text="a") != Title(text="a", titleType="main")


def test_equality_and_hash_are_type_strict():
    assert Variable(value=True) != Variable(value=1)
    assert Variable(value=300) != Variable(value=Decimal(300))
    assert Variable(value=Decimal("1.0")) == Variable(value=Decimal("1"))
    assert hash(Variable(value=Decimal("1.0"))) == hash(Variable(value=Decimal("1")))
    assert len({Variable(value=True), Variable(value=1), Variable(value=Decimal(1))}) == 3
    assert Title(text="a") != ResourceType(text="a")  # same fields, other class


def test_non_finite_decimals_rejected():
    for text in ("NaN", "sNaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            Variable(name="x", value=Decimal(text))
        with pytest.raises(ValueError):
            TemporalResolution(interval=Decimal(text))
        with pytest.raises(PathTargetError):
            set_path(EngMetaDataset(), "system.controlledVariables[0].value", Decimal(text))


def test_decimal_canonical_text():
    assert decimal_to_text(Decimal("300")) == "300"
    assert decimal_to_text(Decimal("0.5000")) == "0.5"
    assert decimal_to_text(Decimal("1E+2")) == "100"
    assert decimal_to_text(Decimal("1E-4")) == "0.0001"
    assert decimal_to_text(Decimal("-0.0")) == "0"
    assert decimal_to_text(Decimal("-42.50")) == "-42.5"


def test_scalar_text_forms():
    assert scalar_to_text(True) == "true"
    assert scalar_to_text(False) == "false"
    assert scalar_to_text(12) == "12"
    assert scalar_to_text("raw") == "raw"


def test_scalars_equal_is_type_strict():
    assert scalars_equal(300, 300)
    assert not scalars_equal(300, Decimal("300"))
    assert not scalars_equal(True, 1)
    assert not scalars_equal("300", 300)
    assert scalars_equal(Decimal("1.0"), Decimal("1"))  # same numeric value
