import dataclasses
from decimal import Decimal

import pytest

from engmeta.canon import from_json, from_xml, to_json, to_xml
from engmeta.errors import CanonDecodeError, CoercionError, ConfigError, PathTargetError
from engmeta.extract import VALUE_TYPES, parse_config
from engmeta.extract.engine import coerce
from engmeta.model import (
    ATTRIBUTE,
    CONTENT,
    NODE,
    NODE_LIST,
    SCALAR_TYPE_NAMES,
    TAGGED,
    Checksum,
    Component,
    EngMetaDataset,
    Environment,
    FileInfo,
    FileRef,
    ObservedSystem,
    ProcessingStep,
    ResourceType,
    SuccessMarker,
    TemporalResolution,
    Title,
    Variable,
    _Node,
    _check_scalar,
    _content,
    _derive_schema,
    decimal_to_text,
    fills,
    number_from_text,
    scalar_key,
    scalar_to_text,
    schema,
)
from engmeta.paths import resolve_specs, set_path
from everyfield import every_field_dataset
from oracles import scalars_equal


def test_empty_dataset_is_empty():
    dataset = EngMetaDataset()
    assert dataset.is_empty()
    assert dataset.titles == ()
    assert dataset.system is None


def test_lists_become_tuples():
    dataset = EngMetaDataset(titles=[Title(text="a")], keywords=["x", "y"])
    assert isinstance(dataset.titles, tuple)
    assert dataset.keywords == ("x", "y")


@pytest.mark.parametrize("cls, attr, value, got", [
    (EngMetaDataset, "keywords", "shear", "str"),
    (ObservedSystem, "boundaryConditions", "periodic", "str"),
    (EngMetaDataset, "keywords", {"a": 1}, "dict"),
    (EngMetaDataset, "keywords", iter(["a"]), "list_iterator"),
    (EngMetaDataset, "titles", Title("x"), "Title"),
])
def test_list_fields_take_only_a_list_or_tuple(cls, attr, value, got):
    """A str or a dict is not read as its items: the JSON reader refuses a
    string for an array too."""
    with pytest.raises(TypeError, match=f"^{attr}: expected a list or tuple, got {got}$"):
        cls(**{attr: value})
    assert cls(**{attr: None}) == cls(**{attr: []}) == cls(**{attr: ()}) == cls()


def test_empty_string_rejected():
    with pytest.raises(ValueError):
        Title(text="")
    with pytest.raises(ValueError):
        EngMetaDataset(keywords=("ok", ""))


def test_text_with_a_lone_surrogate_rejected():
    # as os.fsdecode gives for a file name that is not UTF-8
    with pytest.raises(ValueError, match=r"^filename: 'bad\\udcffname.txt' holds a lone"):
        FileInfo(filename="bad\udcffname.txt")
    with pytest.raises(ValueError, match="^keywords: .* holds a lone surrogate"):
        EngMetaDataset(keywords=("ok", "\ud800"))
    with pytest.raises(ValueError, match="^value: "):
        Variable(name="p", value="x\udfff")
    assert FileInfo(filename="bäd\ufffdname✓.txt").filename == "bäd\ufffdname✓.txt"


@pytest.mark.parametrize("text, code", [("run \x1b[1mseven", "001B"), ("a\x00", "0000"),
                                        ("\x0bx", "000B"), ("x\ufffe", "FFFE"),
                                        ("x\uffff", "FFFF"), ("\x01\udcff", "0001")])
def test_text_xml_cannot_carry_rejected(text, code):
    # XML 1.0 carries no C0 control but tab, LF and CR, nor U+FFFE or U+FFFF
    with pytest.raises(ValueError, match=rf"^text: .* holds U\+{code}, which XML cannot carry$"):
        Title(text=text)
    with pytest.raises(ValueError, match=rf"^keywords: .* holds U\+{code}"):
        EngMetaDataset(keywords=("ok", text))


def test_text_xml_carries_accepted():
    for text in ("tab\tLF\nCR\r", "\x7f\x85\u2028", "\ufffd\ue000\U0010ffff", "中😀"):
        assert Title(text=text).text == text


def test_wrong_scalar_type_rejected():
    with pytest.raises(TypeError):
        TemporalResolution(numberOfTimesteps="5000000")
    with pytest.raises(TypeError):
        TemporalResolution(numberOfTimesteps=True)  # bools are not counts
    with pytest.raises(TypeError):
        Title(text=42)
    with pytest.raises(TypeError, match="^system: expected ObservedSystem, got str$"):
        EngMetaDataset(system="x")  # a node field takes its node class only


def test_int_promotes_to_decimal_fields():
    resolution = TemporalResolution(interval=2)
    assert resolution.interval == Decimal(2)
    assert isinstance(resolution.interval, Decimal)


def test_tagged_value_accepts_all_scalar_types():
    for value in ("text", 7, True, Decimal("1.5")):
        assert Variable(name="x", value=value).value == value
    with pytest.raises(TypeError):
        Variable(name="x", value=1.5)  # floats are not exact; use Decimal


# a field of each scalar type, a sample value of each, and a raw value for each rule type
FIELD_OF_TYPE = {str: "project", int: "file[0].sizeBytes",
                 Decimal: "system.temporalResolution.interval", bool: "worked.success",
                 TAGGED: "system.parameters[0].value"}
SAMPLE_OF_TYPE = {str: "a", int: 3, Decimal: Decimal("1.5"), bool: True}
RAW_OF_RULE_TYPE = {"string": "a", "integer": "3", "decimal": "1.5", "boolean": "yes",
                    "date": "2020-01-01"}
FILLED = {(str, str), (int, int), (int, Decimal), (Decimal, Decimal), (bool, bool),
          *((value_type, TAGGED) for value_type in SAMPLE_OF_TYPE)}


@pytest.mark.parametrize("value_type", SAMPLE_OF_TYPE, ids=lambda tp: tp.__name__)
@pytest.mark.parametrize("field_type", FIELD_OF_TYPE, ids=str)
def test_one_fill_rule_decides_constructors_and_rules(value_type, field_type):
    filled = (value_type, field_type) in FILLED
    assert fills(value_type, field_type) is filled
    spec = resolve_specs(FIELD_OF_TYPE[field_type])[-1][1]
    try:
        _check_scalar(spec, SAMPLE_OF_TYPE[value_type])
    except TypeError:
        assert not filled
    else:
        assert filled
    rule_types = [rule_type for rule_type in VALUE_TYPES
                  if type(coerce(RAW_OF_RULE_TYPE[rule_type], rule_type)) is value_type]
    assert rule_types
    for rule_type in rule_types:
        text = (f"[rule r]\ntarget = {FIELD_OF_TYPE[field_type]}\nsource = *\nkey = k\n"
                f"type = {rule_type}\n")
        if filled:
            parse_config(text)
        else:
            with pytest.raises(ConfigError, match=f"type {rule_type} cannot fill target"):
                parse_config(text)


def test_schema_refuses_text_content_or_scalar_lists_that_are_not_str():
    # plain classes: a _Node subclass would join the model's list of node classes
    class Counted:
        count: int | None = _content()
        unit: str | None = None

    class Counts:
        counts: tuple[int, ...] = ()

    for cls, attr in ((Counted, "count"), (Counts, "counts")):
        with pytest.raises(TypeError) as excinfo:
            _derive_schema(cls)
        assert str(excinfo.value) == (
            f"{cls.__name__}.{attr}: text content and scalar lists hold str")

    class Measured:
        text: str | None = _content()
        count: int | None = None
        labels: tuple[str, ...] = ()

    assert [spec.placement for spec in _derive_schema(Measured)] == [CONTENT, ATTRIBUTE, ATTRIBUTE]


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
    with pytest.raises(TypeError, match="^not a scalar value: object$"):
        scalar_to_text(object())


def test_scalar_key_is_type_strict():
    assert scalar_key(300) == scalar_key(300)
    assert scalar_key(300) != scalar_key(Decimal("300"))
    assert scalar_key(True) != scalar_key(1)
    assert scalar_key("300") != scalar_key(300)
    assert scalar_key(Decimal("1.0")) == scalar_key(Decimal("1"))  # same numeric value
    values = [300, Decimal("300"), True, 1, "300", Decimal("1.0"), Decimal("1"), False, 0]
    for a in values:
        for b in values:
            assert (scalar_key(a) == scalar_key(b)) is scalars_equal(a, b), (a, b)


def test_decimals_are_bounded_like_the_readers():
    """At most 4300 digits in plain notation, so every document set through the API reads back."""
    path = "system.temporalResolution.interval"
    for text in ("1e4299", "1e-4299", "9.99e4299"):
        dataset = set_path(EngMetaDataset(), path, Decimal(text))
        assert from_xml(to_xml(dataset)).dataset == dataset
        assert from_json(to_json(dataset)).dataset == dataset
    for value in (Decimal("1e4300"), Decimal("1e-4300"), Decimal("1e50000"), 10**4300):
        with pytest.raises(PathTargetError, match="exceeds 4300 digits in plain notation"):
            set_path(EngMetaDataset(), path, value)
        with pytest.raises(ValueError, match="exceeds 4300 digits in plain notation"):
            TemporalResolution(interval=value)
    with pytest.raises(ValueError, match="exceeds 4300 digits in plain notation"):
        Variable(name="x", value=Decimal("-1e-4300"))


@pytest.mark.parametrize("text, value_type, reason", [
    ("1.5", int, "is not an integer"),
    ("١٢", int, "is not an integer"),
    ("9" * 4301, int, "exceeds 4300 digits in plain notation"),
    ("NaN", Decimal, "is not a decimal number"),
    ("1_0", Decimal, "is not a decimal number"),
    ("1e50000", Decimal, "exceeds 4300 digits in plain notation"),
    ("1e-999999999999", Decimal, "exceeds 4300 digits in plain notation"),
    # beyond the exponents Decimal itself can hold
    ("1e99999999999999999999", Decimal, "exceeds 4300 digits in plain notation"),
])
def test_number_from_text_gives_one_reason(text, value_type, reason):
    """Both readers and ``coerce`` prefix this reason with the text's repr."""
    with pytest.raises(ValueError) as excinfo:
        number_from_text(text, value_type)
    assert str(excinfo.value) == reason
    with pytest.raises(CoercionError) as excinfo:
        coerce(text, SCALAR_TYPE_NAMES[value_type])
    assert str(excinfo.value) == f"{text!r} {reason}"


def test_number_from_text_reads_ascii_numbers():
    assert number_from_text("-12", int) == -12
    assert number_from_text("+0", int) == 0
    assert number_from_text("1.0e-3", Decimal) == Decimal("0.001")
    assert number_from_text(".5", Decimal) == Decimal("0.5")


def test_integers_are_bounded_like_the_readers():
    """At most 4300 digits, as int() reads them, so every integer set through the API writes."""
    largest = 10**4300 - 1
    dataset = set_path(EngMetaDataset(), "file[0].sizeBytes", largest)
    assert from_xml(to_xml(dataset)).dataset == dataset
    assert from_json(to_json(dataset)).dataset == dataset
    assert coerce(str(largest), "integer") == largest
    for value in (10**4300, -(10**4300), 10**5000):
        with pytest.raises(PathTargetError, match="the integer exceeds 4300 digits in plain notation"):
            set_path(EngMetaDataset(), "file[0].sizeBytes", value)
        with pytest.raises(ValueError, match="the integer exceeds 4300 digits in plain notation"):
            FileInfo(sizeBytes=value)
        with pytest.raises(ValueError, match="the integer exceeds 4300 digits in plain notation"):
            Variable(name="n", value=value)
    text = "1" + "0" * 4300
    with pytest.raises(CanonDecodeError) as raised:
        from_xml(to_xml(dataset).replace(str(largest), text))
    assert str(raised.value).endswith(f"{text!r} exceeds 4300 digits in plain notation")
    with pytest.raises(CoercionError) as raised:
        coerce(text, "integer")
    assert str(raised.value) == f"{text!r} exceeds 4300 digits in plain notation"


def test_constructor_takes_fields_in_declaration_order():
    assert Checksum("a" * 64, "MD5") == Checksum(digest="a" * 64, algorithm="MD5")
    assert Checksum("a" * 64, algorithm="MD5").algorithm == "MD5"
    assert Checksum() == Checksum(None, None)
    assert Checksum().digest is None and EngMetaDataset().titles == ()
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        Checksum("a", "MD5", "extra")
    with pytest.raises(TypeError, match="multiple values for argument 'digest'"):
        Checksum("a", digest="b")
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        Checksum(colour="red")


def _unset(node) -> list[str]:
    return [spec.attr for spec in schema(type(node)) if getattr(node, spec.attr) in (None, ())]


def _nodes_by_class(node, found: dict) -> dict:
    """The node with the most fields set, per class, in the tree under ``node``."""
    best = found.get(type(node))
    if best is None or len(_unset(node)) < len(_unset(best)):
        found[type(node)] = node
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if spec.kind == NODE and value is not None:
            _nodes_by_class(value, found)
        elif spec.kind == NODE_LIST:
            for item in value:
                _nodes_by_class(item, found)
    return found


SAMPLES = _nodes_by_class(every_field_dataset(), {})
NODE_CLASSES = sorted(_Node.__subclasses__(), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_node_classes_share_one_constructor_repr_and_immutability(cls):
    """No per-class generated method: one frozen dataclass declaration would fail this."""
    assert not {"__init__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls))
    assert dataclasses.is_dataclass(cls)
    node = SAMPLES[cls]
    fields = dataclasses.fields(node)
    assert [f.name for f in fields] == [spec.attr for spec in schema(cls)]
    assert _unset(node) == []

    reference = f"{cls.__qualname__}(" + ", ".join(
        f"{f.name}={getattr(node, f.name)!r}" for f in fields
    ) + ")"
    assert repr(node) == reference

    copy = dataclasses.replace(node)
    assert copy == node and copy is not node and repr(copy) == reference
    first = fields[0].name
    changed = dataclasses.replace(node, **{first: None})
    assert getattr(changed, first) in (None, ()) and changed != node

    for name in (first, "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(node, first))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert repr(node) == reference
