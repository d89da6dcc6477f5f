from decimal import Decimal

import pytest

from engmeta.errors import PathIndexGapError, PathSyntaxError, PathTargetError
from engmeta.model import (
    EngMetaDataset,
    ObservedSystem,
    ProcessingStep,
    Software,
    Title,
    Variable,
)
from engmeta.paths import (
    MetadataPath,
    PathSegment,
    append_nodes,
    get_path,
    parse_path,
    resolve_specs,
    set_path,
)


def test_parse_path_segments():
    path = parse_path("processingStep[0].software[0].name")
    assert [seg.name for seg in path.segments] == ["processingStep", "software", "name"]
    assert [seg.index for seg in path.segments] == [0, 0, None]
    assert str(path) == "processingStep[0].software[0].name"
    for text in ("keyword[10]", "processingStep[0].software[2].name", "title[7].text"):
        assert str(parse_path(text)) == text


def test_parse_path_rejects_unknown_element():
    with pytest.raises(PathSyntaxError) as excinfo:
        parse_path("system.unknownThing.name")
    assert excinfo.value.offset == 7


def test_parse_path_rejects_bad_syntax():
    # an index is ASCII digits only, as every number rule is
    for text, offset in (("", 0), ("title..text", 6), ("title[x]", 5), ("title.", 6),
                         ("keyword[\u0661]", 7), ("processingStep[\uff10].date", 14)):
        with pytest.raises(PathSyntaxError) as excinfo:
            parse_path(text)
        assert excinfo.value.offset == offset


def test_get_path_on_fixture(gromacs_doc):
    assert get_path(gromacs_doc, "processingStep[0].software[0].name") == ["Gromacs"]
    assert get_path(gromacs_doc, "system.measuredVariables[0].name") == [
        "distance between the molecules"
    ]


def test_get_path_out_of_range_is_empty(gromacs_doc):
    assert get_path(gromacs_doc, "system.components[99].name") == []
    assert get_path(EngMetaDataset(), "system.components[0].name") == []


def test_get_path_without_index_returns_all(gromacs_doc):
    assert get_path(gromacs_doc, "processingStep.stepType") == [
        "data generation",
        "post processing",
        "analysis",
    ]


def test_get_path_wrong_context_is_empty(gromacs_doc):
    # 'title' exists in the vocabulary but not under system
    assert get_path(gromacs_doc, "system.title") == []
    # nothing lies below a scalar, and a field that is not a list has only index 0
    assert get_path(gromacs_doc, "project.title") == []
    assert get_path(gromacs_doc, "project[1]") == get_path(gromacs_doc, "system[1].name") == []


def test_set_path_creates_intermediates():
    doc = set_path(EngMetaDataset(), "system.temporalResolution.numberOfTimesteps", 5000000)
    assert doc.system.temporalResolution.numberOfTimesteps == 5000000
    assert get_path(doc, "system.temporalResolution.numberOfTimesteps") == [5000000]


def test_set_path_appends_one_past_end():
    doc = EngMetaDataset(processingSteps=(ProcessingStep(stepType="analysis"),) * 2)
    doc = set_path(doc, "processingStep[2].stepType", "analysis")
    assert len(doc.processingSteps) == 3


def test_set_path_rejects_index_gap():
    doc = EngMetaDataset(processingSteps=(ProcessingStep(stepType="analysis"),) * 2)
    with pytest.raises(PathIndexGapError):
        set_path(doc, "processingStep[5].stepType", "analysis")


def test_set_path_rejects_non_scalar_target():
    with pytest.raises(PathTargetError):
        set_path(EngMetaDataset(), "system", "x")
    with pytest.raises(PathTargetError):
        set_path(EngMetaDataset(), "processingStep[0].method", "x")


def test_set_path_rejects_incompatible_value():
    with pytest.raises(PathTargetError):
        set_path(EngMetaDataset(), "system.temporalResolution.numberOfTimesteps", "lots")
    with pytest.raises(PathTargetError):
        set_path(EngMetaDataset(), "title[0].text", 42)


def test_set_path_requires_index_for_writing_lists():
    for path, message in [
        ("keyword", "keyword: keyword needs an index for writing"),
        ("title.text", "title.text: title needs an index for writing"),
        # and takes none on a field that is not a list
        ("project[1]", "project[1]: project is not a list"),
        ("system[1].description", "system[1].description: system is not a list"),
    ]:
        with pytest.raises(PathTargetError) as excinfo:
            set_path(EngMetaDataset(), path, "x")
        assert str(excinfo.value) == message


@pytest.mark.parametrize("path, name", [
    ("project[1]", "project"),
    ("system[1].description", "system"),
    ("system[1]", "system"),
    ("system.temporalResolution[2].interval", "temporalResolution"),
])
def test_every_write_refuses_an_index_on_a_field_that_is_not_a_list(path, name):
    # one check, in resolving, serves set_path, append_nodes and resolve_specs
    doc = EngMetaDataset(project="p", system=ObservedSystem(description="d"))
    for call in (lambda: set_path(doc, path, "x"), lambda: append_nodes(doc, path, ["x"]),
                 lambda: resolve_specs(path), lambda: resolve_specs(parse_path(path))):
        with pytest.raises(PathTargetError) as excinfo:
            call()
        assert str(excinfo.value) == f"{path}: {name} is not a list"
    assert get_path(doc, path) == []  # a read of it finds nothing
    assert get_path(doc, "system[0].description") == ["d"]


def test_resolve_specs_starts_at_the_dataset():
    assert [spec.attr for _, spec in resolve_specs("system.description")] == [
        "system", "description"]
    with pytest.raises(TypeError):
        resolve_specs("description", root=ObservedSystem)


def test_append_node_appends_checked_scalars():
    doc = append_nodes(EngMetaDataset(), "keyword", ("a",))
    assert append_nodes(doc, "keyword", ("b",)).keywords == ("a", "b")
    for path, value in (("keyword", 5), ("keyword", ""), ("keyword[0]", "c"), ("project", "c")):
        with pytest.raises(PathTargetError):
            append_nodes(doc, path, (value,))


def test_writes_refuse_text_with_a_lone_surrogate():
    with pytest.raises(PathTargetError, match=r"^file\[0\].filename: filename: .* lone surrogate"):
        set_path(EngMetaDataset(), "file[0].filename", "bad\udcffname.txt")
    with pytest.raises(PathTargetError, match="^keyword: keywords: .* lone surrogate"):
        append_nodes(EngMetaDataset(), "keyword", ["ok", "b\udcff"])


def test_writes_refuse_text_xml_cannot_carry():
    with pytest.raises(PathTargetError, match=r"^title\[0\]\.text: text: .* U\+001B, which XML"):
        set_path(EngMetaDataset(), "title[0].text", "run \x1b[1mseven")
    with pytest.raises(PathTargetError, match=r"^keyword: keywords: .* U\+FFFF, which XML"):
        append_nodes(EngMetaDataset(), "keyword", ["ok", "b\uffff"])


def test_writes_refuse_a_list_field_value_that_is_not_a_list_or_tuple():
    doc = EngMetaDataset(keywords=("a",))
    for items, got in (("ab", "str"), ({"b": 1}, "dict")):
        with pytest.raises(PathTargetError,
                           match=f"^keyword: keywords: expected a list or tuple, got {got}$"):
            append_nodes(doc, "keyword", items)
    with pytest.raises(PathTargetError, match="^title: titles: expected a list or tuple, got Title$"):
        append_nodes(doc, "title", Title("x"))
    assert append_nodes(doc, "keyword", ["b"]) == append_nodes(doc, "keyword", ("b",))


@pytest.mark.parametrize("root", [None, "doc", EngMetaDataset])
def test_a_document_that_is_not_a_node_reads_nothing_and_refuses_writes(root):
    assert get_path(root, "project") == get_path(root, "keyword") == []
    name = type(root).__name__
    with pytest.raises(PathTargetError, match=f"^project: a {name} is not a document node$"):
        set_path(root, "project", "x")
    with pytest.raises(PathTargetError, match=f"^keyword: a {name} is not a document node$"):
        append_nodes(root, "keyword", ["a"])


def test_append_nodes_keeps_order_and_skips_empty_nodes():
    doc = append_nodes(EngMetaDataset(keywords=("a",)), "keyword", ["b", "c", "b"])
    assert doc.keywords == ("a", "b", "c", "b")
    doc = append_nodes(doc, "system.parameters",
                       [Variable(name="p"), Variable(), Variable(name="q")])
    assert [v.name for v in doc.system.parameters] == ["p", "q"]
    assert append_nodes(doc, "system.parameters", [Variable(), Variable()]) is doc
    assert append_nodes(doc, "keyword", []) is doc


def test_append_nodes_checks_every_item_before_writing():
    doc = EngMetaDataset(keywords=("a",))
    for path, items in (
        ("keyword", ["b", 5]),
        ("keyword", ["b", ""]),
        ("system.parameters", [Variable(name="p"), Software(name="s")]),
        ("system.parameters", [Variable(name="p"), "q"]),
    ):
        with pytest.raises(PathTargetError):
            append_nodes(doc, path, items)
    assert doc == EngMetaDataset(keywords=("a",))


def test_append_nodes_rejects_an_index_gap():
    with pytest.raises(PathIndexGapError):
        append_nodes(EngMetaDataset(), "processingStep[1].method.parameters", [Variable(name="n")])


def test_append_nodes_reports_a_failed_check_as_the_constructor_words_it():
    doc = EngMetaDataset()
    with pytest.raises(PathTargetError) as caught:
        append_nodes(doc, "system.parameters", [Variable(name="p"), Software(name="s")])
    assert str(caught.value) == (
        "system.parameters: parameters: expected Variable entries, got Software"
    )
    with pytest.raises(PathTargetError) as caught:
        append_nodes(doc, "keyword", ["b", ""])
    assert str(caught.value) == "keyword: keywords: empty strings are not valid values"


@pytest.mark.parametrize("segments", [
    (PathSegment("keyword", -1),),  # set_path wrote before the last entry
    (PathSegment("keyword", -5),),  # get_path raised IndexError
    (PathSegment("keyword", True),),  # get_path read it as index 1
    (PathSegment("keyword", "0"),),
    (PathSegment("keyword", 1.0),),
    (PathSegment(1),),
    ("keyword",),
    [PathSegment("keyword")],
    "keyword",
    None,
    (),
], ids=["index -1", "index -5", "bool index", "str index", "float index", "int name",
        "str segment", "list", "str", "none", "empty"])
def test_built_paths_with_bad_segments_are_refused(segments):
    doc = EngMetaDataset(keywords=("a", "b"))
    path = MetadataPath(segments)
    message = ("path segments must be a non-empty tuple of PathSegments of a str name and a "
               f"non-negative int or None index, got {segments!r}")
    for call in (lambda: get_path(doc, path), lambda: set_path(doc, path, "x"),
                 lambda: append_nodes(doc, path, ["x"])):
        with pytest.raises(PathTargetError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_set_path_does_not_mutate_input():
    original = EngMetaDataset(titles=(Title(text="before"),))
    snapshot = original
    updated = set_path(original, "title[0].text", "after")
    assert original == snapshot
    assert original.titles[0].text == "before"
    assert updated.titles[0].text == "after"


def test_set_then_get_round_trip():
    cases = [
        ("project", "DiplIng"),
        ("system.spatialResolution.scale", Decimal("0.25")),
        ("worked.success", True),
        ("keyword[0]", "turbulence"),
        ("file[0].sizeBytes", 512),
    ]
    doc = EngMetaDataset()
    for path, value in cases:
        doc = set_path(doc, path, value)
    for path, value in cases:
        assert get_path(doc, path) == [value]
