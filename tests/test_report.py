"""The one JSON document format, range check and range run that `report` owns, and one
check for each other input rule."""

import functools
import json
import re

import pytest

from collatz_lab.cli import main
from collatz_lab.core_map import step
from collatz_lab.facts import verify_predecessor_structure, verify_reduction, verify_transitions
from collatz_lab.report import SCHEMA_VERSION, RangeRun, document, read_document
from collatz_lab.trajectory import converges, orbit, reduced_orbit
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


def test_a_run_reports_its_range_and_holds_the_witness_lists_it_is_given():
    run = RangeRun("demo", 3, 10)
    violations, inconclusive = [(4, "a")], [(7, "b")]
    report = run.report(violations, inconclusive)
    assert (report.fact_id, report.lo, report.hi, report.checked) == ("demo", 3, 10, 8)
    assert report.elapsed >= 0
    # The verifier appends to its record's lists and hands those very lists to its report.
    assert report.violations is violations and report.inconclusive is inconclusive


def test_a_left_out_inconclusive_is_a_new_empty_list():
    run = RangeRun("demo", 1, 1)
    a, b = run.report([]), run.report([])
    assert a.inconclusive == [] and type(a.inconclusive) is list
    assert a.inconclusive is not b.inconclusive


def test_a_run_checks_its_range():
    with pytest.raises(ValueError, match=f"^{re.escape('need 1 <= lo <= hi, got [5, 3]')}$"):
        RangeRun("x", 5, 3)


BUDGET = "budget must be >= 0, got -1"
DOMAIN = "map domain is x >= 1, got 0"


@pytest.mark.parametrize(
    "call, message",
    [
        (functools.partial(RangeVerifier, 1, 10, budget=-1), BUDGET),
        (functools.partial(verify_reduction, 1, 10, budget=-1), BUDGET),
        (functools.partial(orbit, 5, -1, 1), BUDGET),
        (functools.partial(reduced_orbit, 5, -1), BUDGET),
        (("facts", "transitions", "1", "10", "--budget", "-1"), BUDGET),
        (("trajectory", "5", "--budget", "-1"), BUDGET),
        (("verify-range", "1", "10", "--budget", "-1"), BUDGET),
        (functools.partial(step, 0), DOMAIN),
        (functools.partial(orbit, 0, 10, 1), DOMAIN),
        (functools.partial(converges, 0, 10, 1), DOMAIN),
    ],
    ids=lambda v: " ".join(v) if type(v) is tuple else getattr(v, "func", None) and v.func.__name__,
)
def test_each_input_rule_is_one_check_with_one_message(call, message, capsys):
    if type(call) is tuple:  # a command line: exit 2 with the message
        assert main(list(call)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
