import pytest

from engmeta.errors import ConfigError
from engmeta.extract import ExtractionConfig, ExtractionRule, parse_config
from engmeta.paths import MetadataPath, PathSegment, parse_path

MINIMAL = """
[rule nsteps]
target = system.temporalResolution.numberOfTimesteps
source = *.mdp
key = nsteps
type = integer
"""


def test_minimal_rule_gets_defaults():
    config = parse_config(MINIMAL)
    assert len(config.rules) == 1
    rule = config.rules[0]
    assert rule.id == "nsteps"
    assert rule.delimiter == "="
    assert rule.occurrence == "first"
    assert rule.valueType == "integer"
    assert str(rule.target) == "system.temporalResolution.numberOfTimesteps"


def test_rule_file_may_start_with_a_byte_order_mark():
    assert parse_config("\ufeff" + MINIMAL.lstrip()) == parse_config(MINIMAL.lstrip())
    with pytest.raises(ConfigError, match="line 1: expected 'name = value'"):
        parse_config("\ufeff\ufeff" + MINIMAL.lstrip())  # only one mark is dropped


def test_empty_config_is_valid():
    assert parse_config("").rules == ()
    assert parse_config("# only comments\n\n").rules == ()


def test_duplicate_rule_id_names_both_lines():
    text = MINIMAL + "\n[rule nsteps]\ntarget = project\nsource = *.txt\nkey = p\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "line 2" in str(excinfo.value)
    assert excinfo.value.line == 8


def test_unknown_field_rejected_with_line():
    text = MINIMAL + "flavor = vanilla\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == 7


def test_missing_mandatory_field_rejected():
    text = "[rule broken]\nsource = *.log\nkey = K\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "target" in str(excinfo.value)


def test_bad_target_path_rejected():
    text = "[rule broken]\ntarget = system.unknownThing\nsource = *.log\nkey = K\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_non_scalar_target_rejected():
    text = "[rule broken]\ntarget = system\nsource = *.log\nkey = K\n"
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("target, extra", [
    ("project[1]", ""),
    ("system[1].description", ""),
    ("system.controlledVariables.name[1]", "group = g\n"),
])
def test_index_on_a_field_that_is_not_a_list_rejected(target, extra):
    # set_path refuses such a target, so no hit could ever be written
    text = f"[rule broken]\ntarget = {target}\nsource = *.log\nkey = K\n{extra}"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "is not a list" in str(excinfo.value)
    assert excinfo.value.line == 1


def test_open_list_needs_all_or_group():
    text = "[rule broken]\ntarget = keyword\nsource = *.txt\nkey = K\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "occurrence=all" in str(excinfo.value)


def test_occurrence_all_allows_open_list():
    text = "[rule kw]\ntarget = keyword\nsource = *.txt\nkey = K\noccurrence = all\n"
    config = parse_config(text)
    assert config.rules[0].shape.open_list == parse_path("keyword")


def test_grouped_rules_must_share_the_open_list():
    text = """
[rule name]
target = system.controlledVariables.name
source = *.mdp
key = N
group = g

[rule value]
target = system.measuredVariables.value
source = *.mdp
key = V
group = g
"""
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "different lists" in str(excinfo.value)


def test_unit_requires_variable_target():
    text = "[rule r]\ntarget = project\nsource = *.txt\nkey = K\nunit = nm\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "unit" in str(excinfo.value)


def test_duplicate_field_rejected():
    text = MINIMAL + "key = again\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_empty_delimiter_rejected():
    text = "[rule r]\ntarget = project\nsource = *.txt\nkey = K\ndelimiter =\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "delimiter" in str(excinfo.value)
    assert excinfo.value.line == 5  # the field's own line, not the header's


def test_empty_unit_and_group_read_as_unset():
    text = ("[rule r]\ntarget = system.controlledVariables.value\nsource = *\nkey = K\n"
            "occurrence = all\nunit =\ngroup =\n")
    rule = parse_config(text).rules[0]
    assert (rule.unit, rule.group) == (None, None)


def test_value_taken_verbatim_after_first_equals():
    text = "[rule r]\ntarget = project\nsource = *.txt\nkey = K\ndelimiter = =\n"
    config = parse_config(text)
    assert config.rules[0].delimiter == "="


def test_field_before_header_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("target = project\n")
    assert excinfo.value.line == 1


def test_declaration_order_preserved(rules_path):
    config = parse_config(rules_path.read_text())
    assert len(config.rules) == 25
    assert config.rules[0].id == "title"
    assert config.rules[-1].id == "nodes"
    grouped = [rule.id for rule in config.rules if rule.group]
    assert grouped == ["param-name", "param-value", "ctrl-name", "ctrl-value"]
    assert sum(1 for rule in config.rules if rule.occurrence == "all") == 1


@pytest.mark.parametrize(
    "target, value_type, occurrence, accepted",
    [
        ("system.parameters.name", "integer", "all", False),
        ("keyword", "integer", "all", False),
        ("title[0].text", "integer", "first", False),
        ("system.temporalResolution.interval", "integer", "first", True),
        ("system.parameters.value", "boolean", "all", True),
    ],
)
def test_rule_type_must_fill_its_target(target, value_type, occurrence, accepted):
    text = (
        f"# a rule whose values must fit its field\n[rule r]\ntarget = {target}\n"
        f"source = *.log\nkey = K\ntype = {value_type}\noccurrence = {occurrence}\n"
    )
    if accepted:
        assert parse_config(text).rules[0].valueType == value_type
        return
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == 2
    assert str(excinfo.value) == (
        f"line 2: rule 'r': type integer cannot fill target {target}, a string field"
    )


def test_hand_built_rule_needs_a_parsed_target():
    # a text target would reach the engine unparsed
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(id="r", target="project", source="*", key="a")
    assert str(excinfo.value) == "line 0: rule 'r': target must be a MetadataPath, got str"


@pytest.mark.parametrize("segments", [
    ("project",),
    (PathSegment(1),),
    (PathSegment("keyword", "0"),),
    (PathSegment("keyword", True),),
    (PathSegment("keyword", -1),),  # extract raised IndexError on it
    [PathSegment("project")],
    None,
    (),
], ids=["str", "int name", "str index", "bool index", "negative index", "list", "none", "empty"])
def test_hand_built_target_needs_path_segments(segments):
    # paths checks the segments; the rule's error names the rule and its line
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(id="r", target=MetadataPath(segments), source="*", key="a")
    assert str(excinfo.value) == (
        "line 0: rule 'r': bad target: path segments must be a non-empty tuple of PathSegments "
        f"of a str name and a non-negative int or None index, got {segments!r}"
    )


def test_config_refuses_entries_that_are_not_rules():
    with pytest.raises(ConfigError) as excinfo:
        ExtractionConfig(("x",))
    assert excinfo.value.line == 0
    assert str(excinfo.value) == "line 0: expected ExtractionRule entries, got str"
