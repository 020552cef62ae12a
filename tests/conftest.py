import os
import sys

from hypothesis import HealthCheck, settings

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
# the independent AIS encoder, importable as ``make_ais_corpus``
sys.path.insert(0, DATA_DIR)

# one "criterion N: PASS/FAIL" line per acceptance criterion, filled in by
# tests/test_acceptance.py and echoed after the run regardless of capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
