"""Monte Carlo laboratory for truncated long-range percolation on oriented
graphs, the associated renormalization constructions, and the long-range
contact process."""

import os

# lrperc makes no BLAS call, so numpy's OpenBLAS need start no worker thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bondfield, contact, harness, oriented, renorm, sequences, starlat, stats  # noqa: E402

__all__ = ["bondfield", "contact", "harness", "oriented", "renorm",
           "sequences", "starlat", "stats"]
