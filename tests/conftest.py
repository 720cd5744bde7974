from __future__ import annotations

import os
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import riskhull
from riskhull import SigmaSpec, sigma_values, unit_spec

hypothesis.settings.register_profile(
    "riskhull", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("riskhull")


def exact_tail_functional(spec: SigmaSpec, N: int, t: float) -> float:
    """G_N(t) = E[eta_N 1(eta_N >= t)] in sigma_1^2 units, by inversion along the saddlepoint contour.

    With w_j = (sigma_j/sigma_1)^2, x = t + sum(w), K(s) = -1/2 sum log(1 - 2 s w_j)
    and H(s) = sum 2 w_j^2 / (1 - 2 s w_j), G = (1/pi) int_0^inf Re[exp(K(s) - s x) H(s)] dv
    on s = c + iv for any real c < 1/(2 max w): (K'(s) - sum(w)) / s = H(s) has no pole.
    c is the saddlepoint, K'(c) = x, and v = sd sinh(tau) with sd = K''(c)^(-1/2), so the
    integrand decays double-exponentially in tau; a trapezoid on 28,001 points of [0, 14]
    (Rice 1980, integration along a steepest-descent path).  The hull tests and
    acceptance criterion 4 import it from here.
    """
    from scipy.optimize import brentq

    w = sigma_values(unit_spec(spec), N) ** 2
    x = t + w.sum()
    c = brentq(lambda s: np.sum(w / (1 - 2 * s * w)) - x, 0.0, (1 - w.max() / x) / (2 * w.max()))
    sd = np.sum(2 * w**2 / (1 - 2 * c * w) ** 2) ** -0.5
    tau = np.linspace(0.0, 14.0, 28_001)
    s = c + 1j * sd * np.sinh(tau)
    d = 1 - 2 * s[:, None] * w
    Kc = -0.5 * np.log1p(-2 * c * w).sum()
    f = (np.exp(-0.5 * np.log(d).sum(axis=1) - Kc - (s - c) * x) * (2 * w**2 / d).sum(axis=1)).real
    f *= sd * np.cosh(tau)
    # the trapezoid by hand: numpy 2 renamed np.trapz, and numpy 1.24 lacks np.trapezoid
    return float(np.exp(Kc - c * x) * (tau[1] - tau[0]) * (f.sum() - (f[0] + f[-1]) / 2) / np.pi)


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
