"""arrivalab: a deterministic arrival-process laboratory.

Analytic distribution evaluators, seeded inverse-transform samplers, renewal
arrival traces, capacity-bounded occupancy simulation, comparison statistics,
and reproducible experiment sweeps with CSV output.

Each module's ``__all__`` is the one list of its public names; the package
exports them all.
"""

import os

# nothing here calls BLAS, yet every command runs faster with one OpenBLAS
# thread than with a pool (README, "Performance"); a value the user set still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import arrivals, distributions, errors, experiments, occupancy, samplers, stats
from ._version import __version__
from .arrivals import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .occupancy import *  # noqa: F401,F403
from .samplers import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *arrivals.__all__,
    *distributions.__all__,
    *errors.__all__,
    *experiments.__all__,
    *occupancy.__all__,
    *samplers.__all__,
    *stats.__all__,
]
