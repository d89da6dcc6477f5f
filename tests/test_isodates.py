"""One ISO-8601 grammar on every interpreter, through each of its callers.

The accepted spellings are Python 3.10's ``fromisoformat`` grammar plus a
trailing 'Z'; the rejected ones include what 3.11's wider parser reads, so
a run on 3.11 or later shows that the grammar check comes first. The PROV-N
end time takes only the date-times that are also in xsd:dateTime form.
"""

import pytest

from engmeta.errors import CoercionError
from engmeta.extract.engine import coerce
from engmeta.model import DatedEvent, EngMetaDataset, ProcessingStep
from engmeta.prov import serialize_prov_n, to_prov
from engmeta.validation import validate

DATES = ["2020-01-01", "2019-02-28", "2020-02-29", "9999-12-31"]

DATETIMES = [
    "2020-01-01T12",
    "2020-01-01T12:00",
    "2020-01-01T12:00:00",
    "2020-01-01T12:00:00.123",
    "2020-01-01T12:00:00.123456",
    "2020-01-01T12:00:00Z",
    "2020-01-01t12:00z",
    "2020-01-01T12+05:00",
    "2020-01-01T12:00+01:00",
    "2020-01-01T12:00+01:59",
    "2020-01-01T12:00:00+01:00:59",
    "2020-01-01T12:00-05:30:15",
    "2020-01-01T12:00:00+01:00:00.000001",
    "2020-01-01 12:00",
    "2020-01-01x12:00",  # any one character separates date and time
    "2020-01-01Z",  # read as midnight in UTC, the 'Z' standing for '+00:00'
]

REJECTED = [
    "20200101",
    "2020-W01-1",
    "2020-001",
    "2020-1-01",
    "２０２０-01-01",  # full-width digits
    "2020-01-01T",
    "2020-01-01T1200",
    "2020-01-01T12:00:00,5",
    "2020-01-01T12.123",
    "2020-01-01T12:00.123",
    "2020-01-01T12:00:00.5",
    "2020-01-01T12:00:00.1234567",
    "2020-01-01T12:00:00:123",
    "2020-01-01T12:00+0100",
    "2020-01-01T12:00+01:00:00.123",
    "2020-01-01T12:00Z+01:00",
    "2020-02-30",
    "0000-01-01",
    "2020-01-01T24:00",
    "2020-01-01T12:60",
    "2020-01-01T12:00+24:00",
    "2020-01-01T12:00+01:99",  # offset minutes past 59, which fromisoformat carries over
    "2020-01-01T12:00:00+01:00:99",  # offset seconds alike
    "2020-01-01T12:00+01:60",
    "24.05.2019",
    "yesterday",
]


@pytest.mark.parametrize("text", DATES + DATETIMES)
def test_validation_accepts(text):
    assert validate(EngMetaDataset(dates=(DatedEvent(date=text),))).ok


@pytest.mark.parametrize("text", REJECTED)
def test_validation_rejects(text):
    report = validate(EngMetaDataset(dates=(DatedEvent(date=text),)))
    assert [finding.path for finding in report.errors] == ["date[0].date"]


@pytest.mark.parametrize("text", DATES + DATETIMES)
def test_date_coercion_accepts(text):
    assert coerce(text, "date") == text


@pytest.mark.parametrize("text", REJECTED)
def test_date_coercion_rejects(text):
    with pytest.raises(CoercionError, match="is not an ISO-8601 date or date-time"):
        coerce(text, "date")


def _end_time(text: str) -> str:
    doc = to_prov(EngMetaDataset(processingSteps=(ProcessingStep(date=text),)))
    line = next(line for line in serialize_prov_n(doc).splitlines() if line.startswith("activity("))
    return line.split(", ")[2]


# the date-times above that PROV-N's unquoted xsd:dateTime slot can hold
XSD_DATETIMES = {"2020-01-01T12:00:00", "2020-01-01T12:00:00.123", "2020-01-01T12:00:00.123456",
                 "2020-01-01T12:00:00Z"}


@pytest.mark.parametrize("text", DATETIMES)
def test_prov_end_time_is_a_date_time(text):
    assert _end_time(text) == (text if text in XSD_DATETIMES else "-")


@pytest.mark.parametrize("text", DATES + REJECTED)
def test_prov_end_time_is_absent_for_other_text(text):
    assert _end_time(text) == "-"
