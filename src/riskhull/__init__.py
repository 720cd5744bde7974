"""Spectral-cutoff regularization for sequence-space ill-posed inverse
problems, with data-driven bandwidth selection by unbiased risk estimation
(URE) and risk hull minimization (RHM).

The package exports the public names of its modules: each module's
``__all__`` is the one list of them."""

__version__ = "0.1.0"

from . import bench, estimators, hull, selectors, sequence_model
from .sequence_model import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .hull import *  # noqa: F401,F403
from .selectors import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403

_MODULES = (sequence_model, estimators, hull, selectors, bench)
__all__ = list(dict.fromkeys(["__version__", *(name for module in _MODULES for name in module.__all__)]))
