import re

import pytest


@pytest.fixture
def record_criterion(request):
    """Label an acceptance criterion for the terminal summary below.

    Appends to the test's user_properties as record_property does, without
    record_property's warning under the default junit_family (xunit2), which
    filterwarnings = ["error"] would turn into a setup error when the suite
    runs with --junitxml.
    """

    def record(text):
        request.node.user_properties.append(("criterion", text))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus=0, config=None):
    """One PASS/FAIL line per acceptance criterion at the end of the run.

    Criterion tests label themselves through record_criterion(...); the
    label is attached before the body runs, so a failing criterion still
    gets its line.
    """
    rows = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            props = dict(getattr(rep, "user_properties", None) or [])
            text = props.get("criterion")
            if not text:
                continue
            key = int(re.search(r"\d+", text).group())
            failed = getattr(rep, "failed", False)
            old_text, old_failed = rows.get(key, (text, False))
            # a later report carries the timing-annotated label
            rows[key] = (max(old_text, text, key=len), old_failed or failed)
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(rows):
        text, failed = rows[key]
        terminalreporter.write_line(("FAIL " if failed else "PASS ") + text)
