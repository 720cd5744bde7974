from __future__ import annotations

import os
from pathlib import Path

import hypothesis
import pytest

import riskhull

hypothesis.settings.register_profile(
    "riskhull", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("riskhull")


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m riskhull` child processes.

    The tests launch the CLI with `cwd=tmp_path`, where a relative entry
    such as `PYTHONPATH=src` resolves to nothing.  Put the absolute
    directory holding the imported package first, so the child imports
    the same `riskhull` as the test process: the `src/` directory of a
    checkout, or the installed location after `pip install`.
    """
    root = str(Path(riskhull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="session")
def malformed_hull_docs():
    """The malformed variants of a valid hull document ``doc``.

    Each is valid JSON but not the document `save_hull_table` writes: not
    an object at all, or one field of the wrong JSON type.
    """
    def variants(doc):
        wrong = {"spec": [], "saturated": "12", "monotonized": "false", "seed": True,
                 "N_max": "12", "mc_samples": 20000.7, "U0": [str(v) for v in doc["U0"]]}
        return [[], 5, "x", None] + [dict(doc, **{field: v}) for field, v in wrong.items()]

    return variants
