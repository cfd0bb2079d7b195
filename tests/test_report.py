"""The one JSON document format and the one range check that `report` owns."""

import json
import re

import pytest

from collatz_lab.facts import verify_predecessor_structure, verify_reduction, verify_transitions
from collatz_lab.report import SCHEMA_VERSION, document, read_document
from collatz_lab.verify import RangeVerifier


def test_a_document_is_its_header_then_its_fields_at_indent_2():
    fields = {"range": [1, 10], "stats": {"max_steps": 7}, "violations": [], "elapsed": 0.5}
    text = document("verify-range", **fields)
    header = {"schema_version": SCHEMA_VERSION, "task": "verify-range"}
    assert text == json.dumps({**header, **fields}, indent=2) + "\n"
    assert read_document(text, "report") == {**header, **fields}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "a checkpoint document is a JSON object, got list"),
        ("7", "a checkpoint document is a JSON object, got int"),
        ("{}", "unsupported checkpoint schema_version: None"),
        ('{"schema_version": 99}', "unsupported checkpoint schema_version: 99"),
        ('{"schema_version": "1"}', "unsupported checkpoint schema_version: '1'"),
    ],
)
def test_read_document_refuses_another_shape_or_version(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_document(text, "checkpoint")


@pytest.mark.parametrize(
    "check",
    [verify_predecessor_structure, verify_transitions, verify_reduction, RangeVerifier],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("lo, hi", [(0, 3), (5, 4), (-2, -1)])
def test_every_range_is_checked_by_one_rule(check, lo, hi):
    with pytest.raises(ValueError, match=f"^{re.escape(f'need 1 <= lo <= hi, got [{lo}, {hi}]')}$"):
        check(lo, hi)
