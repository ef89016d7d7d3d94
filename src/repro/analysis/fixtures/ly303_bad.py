# repro-fixture: rule=LY303 count=4 path=repro/kernels/example.py
# ruff: noqa
"""Known-bad: a kernel reaching out of the leaf package."""
import numba
import scipy.optimize
from repro.core.node import NodeArray

from ..core.resources import FEASIBILITY_RTOL


def fill_bins(loads, caps):
    del NodeArray, FEASIBILITY_RTOL, numba, scipy
    return loads <= caps
