"""Program analyses: dependences, privatization, data availability.

These are the dHPF analyses that feed computation partitioning:

- :mod:`.dependence` — exact affine dependence testing via the integer set
  framework (direction classified per common-loop level, plus
  loop-independent edges, which drive §5's communication-sensitive loop
  distribution).
- :mod:`.privatize` — validation of HPF NEW directives (is the array really
  privatizable on the loop?).
- :mod:`.availability` — §7's data availability rule: a non-local read
  whose data was already produced locally by the last non-local write needs
  no communication (decided on the communication analyzer's events).
"""

from .dependence import Dependence, DependenceAnalyzer
from .privatize import check_privatizable

__all__ = [
    "Dependence",
    "DependenceAnalyzer",
    "check_privatizable",
]
