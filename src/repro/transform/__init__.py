"""Source-level transformations from the paper's §8.1 preparation steps.

The Rice HPF versions of SP/BT needed *inlining* of calls to
``exact_solution`` inside privatizable loops ("where our interprocedural
computation partitioning analysis was (currently) incapable of identifying
that a computation producing a result in a privatizable array should be
treated completely parallel") — :func:`inline_call` / :func:`inline_calls`.
"""

from .inline import InlineError, inline_call, inline_calls

__all__ = [
    "InlineError",
    "inline_call",
    "inline_calls",
]
