"""Benchmark-suite plumbing.

Every benchmark regenerates one table/figure of the paper, prints it,
and (outside ``--quick`` smoke mode) writes it to ``results/<name>.txt``
so a full run leaves a record.  Scale knobs (all optional):

- ``REPRO_PRESET``   : ``bench`` (default, minutes) or ``paper`` (slow);
- ``REPRO_EPISODES`` : RL episodes per HeteroG search (default 24);
- ``REPRO_ITERATIONS``: measured engine iterations per strategy (def. 5).
"""

from __future__ import annotations

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

# the reference-loop oracle lives in the test package (tests/sim_oracle.py)
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="smoke mode: tiny models and minimal candidate counts "
        "(used by the CI evaluator-throughput step)",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the suite runs in --quick (CI smoke) mode."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir, request, quick):
    """Callable that prints a rendered table and persists it (full runs
    only: a ``--quick`` smoke run leaves the committed record alone)."""

    def _report(title: str, body: str) -> None:
        text = f"== {title} ==\n{body}\n"
        print("\n" + text)
        if not quick:
            (results_dir / f"{request.node.name}.txt").write_text(text)

    return _report
