"""Evaluation harness: regenerates every table and figure of §8.

- :mod:`.tables` — Tables 8.1 (SP) and 8.2 (BT): execution time, relative
  speedup and relative efficiency for hand-written MPI vs dHPF vs PGI, for
  Class A and Class B problem sizes across processor counts.
- :mod:`.spacetime` — Figures 8.1-8.4: space-time diagrams from virtual
  machine traces (ASCII rendering + JSON export).
- :mod:`.diffstats` — the §8.1 "minimal restructuring" claim: fraction of
  source lines changed between serial and HPF kernel versions.

Run from the command line (``python -m repro.eval --help`` lists every
target, ``<target> --help`` its options)::

    python -m repro.eval table-8.1 --classes A
    python -m repro.eval figure-8.1   # ... 8.2, 8.3, 8.4
"""

from .tables import TableRow, table_8_1, table_8_2, format_table
from .spacetime import render_spacetime, spacetime_figure
from .diffstats import diff_stats

__all__ = [
    "TableRow",
    "table_8_1",
    "table_8_2",
    "format_table",
    "render_spacetime",
    "spacetime_figure",
    "diff_stats",
]
