"""Shared fixtures plus a terminal summary for the acceptance criteria.

The acceptance tests are named test_c<number>_<slug>; the summary hook
turns their outcomes into one PASS/FAIL line per criterion so the final
pytest output reads as an acceptance report.
"""

import re

import pytest

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::test_(c\d+)_(\w+)")
_acceptance_outcomes: dict[str, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if m:
        label = m.group(2).replace("_", " ")
        _acceptance_outcomes[m.group(1)] = (label, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for key in sorted(_acceptance_outcomes, key=lambda k: int(k[1:])):
        label, outcome = _acceptance_outcomes[key]
        status = "PASS" if outcome == "passed" else "FAIL"
        tr.write_line(f"{key.upper():>4}  {label:<58} {status}")


@pytest.fixture(scope="session")
def corpus():
    from graphcurvature.corpus import full_corpus

    return full_corpus()

