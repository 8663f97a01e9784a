"""The environment the suites give a child interpreter. A module with a
name of its own, so that importing it cannot pick up another directory's
conftest."""

import os
from pathlib import Path

import redjumps


def package_env():
    """os.environ with PYTHONPATH set to the directory that holds the
    redjumps package under test."""
    return {**os.environ, "PYTHONPATH": str(Path(redjumps.__file__).parents[1])}
