"""The numeric backend of the columnar analytics layer: always numpy.

Kept only because ``perfbench/run.py`` imports :func:`resolve_backend`
and prints its value in every benchmark run; removing it is a change to
the benchmark.
"""

from __future__ import annotations


def resolve_backend() -> str:
    """The numeric backend the batch kernels run on (``"numpy"``)."""
    return "numpy"
