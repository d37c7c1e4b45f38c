"""HPF data distribution machinery.

Turns HPF directive IR (PROCESSORS / TEMPLATE / ALIGN / DISTRIBUTE) into
*ownership sets*: for each distributed array, the symbolic integer set of
elements owned by the representative processor with coordinates
``(p$0, p$1, ...)``.  These sets are the foundation of computation
partitioning and communication analysis.

The formats are BLOCK, CYCLIC(k) and, as a dhpf-py extension, MULTI: the
*diagonal multipartitioning* of the hand-written NAS SP/BT MPI codes (Naik,
IBM Sys. J. 1995), which the paper notes HPF cannot express.  Its ownership
is affine with existentials, so :class:`Distribution` states it like the
others (§9's closing question).  :class:`MultiPartition3D` is its concrete
runtime form, used by the hand-coded baseline in the evaluation.
"""

from .grid import ProcessorGrid
from .layout import Template, Distribution, Layout, DistributionContext, PDIM
from .multipart import MultiPartition3D

__all__ = [
    "ProcessorGrid",
    "Template",
    "Distribution",
    "Layout",
    "DistributionContext",
    "MultiPartition3D",
    "PDIM",
]
