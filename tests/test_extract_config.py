import pytest

from engmeta.errors import ConfigError
from engmeta.extract import ExtractionConfig, ExtractionRule, parse_config, parse_line
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


def test_hand_built_config_refuses_a_repeated_rule_id():
    # as a rule file does: two rules under one id would share their report counts
    project = ExtractionRule(id="r", target=parse_path("project"), source="*", key="N", line=2)
    keyword = ExtractionRule(id="r", target=parse_path("keyword"), source="*", key="N",
                             occurrence="all", line=7)
    for rules, line in (((project, keyword), 7), ((project, project), 2)):
        with pytest.raises(ConfigError) as excinfo:
            ExtractionConfig(rules)
        assert str(excinfo.value) == (
            f"line {line}: duplicate rule id 'r' (first declared on line 2)"
        )
        assert excinfo.value.line == line


def test_target_index_in_non_ascii_digits_rejected():
    for target in ("keyword[\u0661]", "processingStep[\uff10].date"):
        with pytest.raises(ConfigError, match="line 3: rule 'r': bad target"):
            parse_config(f"[rule r]\nsource = *\ntarget = {target}\nkey = K\n")


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
    # paths refuses such a target for every write, and the rule passes its message on
    text = f"[rule broken]\ntarget = {target}\nsource = *.log\nkey = K\n{extra}"
    name = target.partition("[1]")[0].rpartition(".")[2]  # the field indexed
    message = f"rule 'broken': bad target: {target}: {name} is not a list"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == f"line 1: {message}"
    assert excinfo.value.line == 1
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(id="broken", target=parse_path(target), source="*", key="K")
    assert str(excinfo.value) == f"line 0: {message}"


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


def test_unit_xml_cannot_carry_rejected_on_its_line():
    # the unit is the one rule field written into documents
    text = ("[rule r]\ntarget = system.controlledVariables.value\nsource = *\nkey = K\n"
            "occurrence = all\nunit = K\x01\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == ("line 6: rule 'r': unit 'K\\x01' holds U+0001, "
                                  "which XML cannot carry")
    assert excinfo.value.line == 6


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


@pytest.mark.parametrize(("name", "value", "fault"), [
    ("key", " a", "starts with whitespace"),
    ("key", "\u3000a", "starts with whitespace"),
    ("key", "\na", "starts with whitespace"),
    ("key", "a\nb", "holds a line break"),
    ("delimiter", " =", "starts with a space or tab"),
    ("delimiter", "\t=", "starts with a space or tab"),
    ("delimiter", "=\n", "holds a line break"),
    ("key", "x\ud800", "holds a lone surrogate"),
    ("key", "\udfffx", "holds a lone surrogate"),
    ("delimiter", "\udc80", "holds a lone surrogate"),
])
def test_hand_built_key_or_delimiter_that_can_match_no_line_rejected(name, value, fault):
    # a line is matched stripped, its key of the spaces and tabs after it, and ends at "\n";
    # it is decoded UTF-8, so it holds no lone surrogate
    fields = dict(id="r", target=parse_path("project"), source="*", key="a", line=3)
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(**{**fields, name: value})
    assert str(excinfo.value) == (
        f"line 3: rule 'r': {name} {value!r} {fault}, so it can match no line"
    )


@pytest.mark.parametrize(("fields", "message"), [
    ("key = x\ud800\n", "line 4: rule 'r': key 'x\\ud800'"),
    ("key = x\ndelimiter = =\udc80\n", "line 5: rule 'r': delimiter '=\\udc80'"),
])
def test_rule_text_holding_a_lone_surrogate_rejected_on_its_field_line(fields, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[rule r]\ntarget = project\nsource = a.log\n" + fields)
    assert str(excinfo.value) == f"{message} holds a lone surrogate, so it can match no line"


@pytest.mark.parametrize("rule_id", [None, 5, "", "a b", "x]", "a\udc80"])
def test_hand_built_rule_id_a_header_cannot_give_rejected(rule_id):
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(rule_id, parse_path("project"), "a.log", "p", line=3)
    assert str(excinfo.value) == (f"line 3: rule id {rule_id!r} must be non-empty text without "
                                  "whitespace, ']' or a lone surrogate")


def test_rule_header_holding_a_lone_surrogate_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[rule a\udc80]\ntarget = project\nsource = a.log\nkey = p\n")
    assert str(excinfo.value) == "line 1: bad rule header '[rule a\\udc80]'; expected [rule <id>]"


@pytest.mark.parametrize(("source", "fault"), [
    ("a\udc80.log", "holds a lone surrogate, not UTF-8 text"),
    ("b\x01.log", "holds U+0001, which XML cannot carry"),
    ("*\ufffe*", "holds U+FFFE, which XML cannot carry"),
])
def test_source_that_can_match_no_file_rejected_on_its_line(source, fault):
    # a walked name has U+FFFD for each byte that is not UTF-8 and each character
    # XML cannot carry, so a source holding either matches no name
    message = f"rule 'r': source {source!r} {fault}, so it can match no file"
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(id="r", target=parse_path("project"), source=source, key="a", line=3)
    assert str(excinfo.value) == f"line 3: {message}"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(f"[rule r]\ntarget = project\nkey = a\nsource = {source}\n")
    assert str(excinfo.value) == f"line 4: {message}"


def test_rule_file_strips_key_and_delimiter_and_other_whitespace_still_matches():
    parsed = parse_config(
        "[rule r]\ntarget = project\nsource = *\nkey = \u3000a b\t\ndelimiter = \t=\n"
    ).rules[0]
    assert (parsed.key, parsed.delimiter) == ("a b", "=")
    assert parse_line("  a b = 1", parsed).rawValue == "1"
    # whitespace inside or after a key, and before a delimiter but a space or tab
    built = ExtractionRule(id="r", target=parse_path("project"), source="*", key="a ",
                           delimiter="\u3000=")
    assert parse_line("a \u3000= 1", built).rawValue == "1"
