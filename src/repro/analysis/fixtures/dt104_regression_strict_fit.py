# repro-fixture: rule=DT104 count=2 path=repro/algorithms/example.py
# ruff: noqa
"""Regression: the pre-fix greedy/rounding element-fit checks.

``algorithms/greedy.py``, ``rounding.py``, and ``sharing/baseline.py``
once each carried a private copy of the seed's ``1e-12`` fit slack, and
``core/service.py`` used it for the yield-domain bound.  They now share
``core.resources.STRICT_FIT_ATOL`` — this snippet preserves the old
shape so the literals cannot quietly reappear.
"""


def elem_fit_rows(req_elem, node_elem):
    return (req_elem <= node_elem + 1e-12).all(axis=1)


def yield_upper_bound(need, cap):
    return min(1.0 + 1e-12, cap / need)
