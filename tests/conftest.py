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
    """The malformed variants of a valid power-law hull document ``doc``.

    Each is valid JSON but not the document `save_hull_table` writes: not
    an object at all, one field of the wrong JSON type, a `saturated`
    list that names a bandwidth past N_max or names one twice, a
    `SigmaFourth` list ending in NaN, a `U0` list with a NaN or a negative
    entry or one entry short, or a `spec` with a key its kind does not
    take (the explicit one carries its own fingerprint, so only that key
    is wrong).
    """
    def variants(doc):
        wrong = {"spec": [], "saturated": "12", "monotonized": "false", "seed": True,
                 "N_max": "12", "mc_samples": 20000.7, "U0": [str(v) for v in doc["U0"]]}
        saturated = [[doc["N_max"] + 1], [1, 1]]
        u0 = [doc["U0"][:-1] + [float("nan")], [-1.0] + doc["U0"][1:], doc["U0"][:-1]]
        spec = riskhull.spec_from_dict(doc["spec"])
        explicit = riskhull.SigmaSpec.explicit(riskhull.sigma_values(spec, doc["N_max"]).tolist())
        specs = [dict(doc, spec=dict(doc["spec"], values=[1.0])),
                 dict(doc, spec=dict(doc["spec"], junk=0)),
                 dict(doc, spec=dict(riskhull.spec_to_dict(explicit), beta=spec.beta),
                      spec_fingerprint=riskhull.fingerprint(explicit))]
        return ([[], 5, "x", None] + [dict(doc, **{field: v}) for field, v in wrong.items()]
                + [dict(doc, saturated=v) for v in saturated]
                + [dict(doc, SigmaFourth=doc["SigmaFourth"][:-1] + [float("nan")])]
                + [dict(doc, U0=v) for v in u0] + specs)

    return variants
