"""Shared pytest wiring for the acceptance battery: each acceptance test
records a one-line verdict here, and the terminal summary echoes them all so
the per-criterion outcome is visible without -s. The `cold_tables` fixture
empties the analytic engine's table memos, and `cold_field` the simulator's
memos."""
import pytest

from uavcache import analytics, simulator

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def cold_tables():
    """Empty the radial and geometry table memos on entry and exit, and yield the
    function that empties them. A memo does not restore itself as a patched
    attribute does, so tables built under a patched engine internal must be
    cleared before the next test reads them."""
    def clear():
        analytics._geometry_tables.cache_clear()
        analytics._radial_group.cache_clear()

    clear()
    yield clear
    clear()


@pytest.fixture
def cold_field():
    """Empty the simulator's memos (the far-field draw and the zone pass) on
    entry and exit, and yield the function that empties them. Two runs that
    must each draw, or a run under a patched simulator internal, clear them
    first: otherwise the later run reads the earlier run's draw."""
    memos = (simulator._interference_field, simulator._zone_rates)

    def clear():
        for memo in memos:
            memo.cache_clear()

    clear()
    yield clear
    clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
