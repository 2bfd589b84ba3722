"""Shared pytest plumbing.

The acceptance tests register one human-readable line each; those lines are
echoed in the terminal summary so a plain `pytest -v` run always shows one
PASS/FAIL line per acceptance criterion, whatever the capture settings.
The `inline_pool` fixture runs the replica loop's pool in this process.
"""

import os

import pytest

from lrperc import bondfield

_ACCEPTANCE_LINES = {}


def record_acceptance(number: int, label: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES[number] = f"ACCEPTANCE {number:2d} {label}: {status}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])


@pytest.fixture
def inline_pool(monkeypatch):
    """`inline_pool(cores)` sets the core count and runs the pool's chunks in
    this process; it returns the list of worker counts the pool is asked for."""
    asked = []

    class InlineExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def patch(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(bondfield, "ProcessPoolExecutor", InlineExecutor)
        return asked
    return patch
