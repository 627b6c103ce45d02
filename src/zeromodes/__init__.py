"""Zero modes of magnetic Dirac operators with spectral boundary conditions.

Counts, constructs and independently verifies the zero modes on the plane,
a disc, and a sphere with circular holes, together with the eta invariants
and the index of the boundary-corrected problem.
"""

from .aps_boundary import *
from .berry_mondragon import *
from .conformal import *
from .errors import *
from .eta_index import *
from .field import *
from .geometry import *
from .numutil import *
from .potential import *
from .zero_modes import *

# importing a submodule binds its name in this package
__all__ = [*aps_boundary.__all__, *berry_mondragon.__all__, *conformal.__all__, *errors.__all__,
           *eta_index.__all__, *field.__all__, *geometry.__all__, *numutil.__all__,
           *potential.__all__, *zero_modes.__all__]
__version__ = "0.1.0"
