"""Shared pytest plumbing.

The acceptance tests register one human-readable line each; those lines are
echoed in the terminal summary so a plain `pytest -v` run always shows one
PASS/FAIL line per acceptance criterion, whatever the capture settings.
The `inline_pool` fixture runs the shares that the replica loop would fork
out to children in this process instead, so spies see every chunk.
"""

import os
from types import SimpleNamespace

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
    """`inline_pool(cores)` sets the core count and runs each share that
    `run_replicas` would fork out in this process, when the caller collects
    it (after its own share, so chunks run in plan order); it returns the
    list of worker counts the runs are asked for."""
    asked = []

    def start(share, w):
        if w == 1:  # the first child of a run; the caller is worker 0
            asked.append(1)
        asked[-1] += 1
        return SimpleNamespace(records=lambda: share(w), kill=lambda: None)

    def patch(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(bondfield, "_fork_share", start)
        return asked
    return patch
