# repro-fixture: rule=LY304 count=3 path=repro/kernels/batch.py
# ruff: noqa
"""Known-bad: the batch container growing dependencies (the last two
are fine for an ordinary kernel module under LY303, but not here)."""
import numba
from repro.kernels.api import KernelBackend

from . import _loops


def pack(instances):
    del numba, KernelBackend, _loops
    return instances
