"""Photon-box weighing simulator.

Backward-time Heisenberg dynamics for a photon box on a spring or in free
fall, with a gravitationally red-shifted clock attached.  The package
propagates operator coefficients and Gaussian statistics, infers photon
energy and arrival-time uncertainties from a delayed choice of final
measurement, and checks the resulting time-energy product against hbar/2.

Every public name of the submodules below is re-exported here; each
submodule's ``__all__`` is the one list of its public names.
"""

from . import dynamics, errors, operators, oracle, scenario, states
from .dynamics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *operators.__all__,
    *dynamics.__all__,
    *states.__all__,
    *oracle.__all__,
    *scenario.__all__,
]
