"""The §6 sharing kernel: one ``share_nodes`` call shares every node.

``evaluate_actual_yields`` groups the services by node and makes one
``share_nodes`` call on the active backend.  Every backend must return,
byte for byte (``tobytes()``, so signed zeros count), what the per-node
loop it replaced returns: that loop, kept below as the oracle, builds
each node's :class:`NodeSharingProblem` and runs the policy of
:data:`POLICIES` on it.  ``loops`` (the uncompiled source) and ``numpy``
(the same source on Python lists) always run; ``native`` wherever a C
compiler exists.

The per-node sums are where a kernel can drift: numpy sums a node's
column pairwise (eight accumulators once a node has 8 or more members,
blocks split in half past 128), so nodes of 8-128 and of more than 128
members expose a kernel that sums in order.  Contended nodes run several
redistribution rounds, and ``np.minimum``/``np.maximum``/``np.clip`` and
Python's ``max`` each break a signed-zero tie their own way, which
``-0.0`` inputs and zero capacities exercise.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import kernels
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.kernels.api import (SHARE_POLICIES, ArrayKernelBackend,
                               ShareNodesArgs)
from repro.sharing import baseline
from repro.sharing.baseline import evaluate_actual_yields
from repro.sharing.policies import POLICIES, NodeSharingProblem
from repro.sharing.work_conserving import work_conserving_shares

AVAILABILITY = kernels.available_backends()
AVAILABILITY["loops"] = None


def _backends():
    out = []
    for name in ("native", "loops", "numpy"):
        reason = AVAILABILITY.get(name)
        marks = () if reason is None else (pytest.mark.skip(reason=reason),)
        out.append(pytest.param(name, marks=marks))
    return out


def per_node_loop(instance_true, placement, policy, estimated_instance=None,
                  cpu_dim=0):
    """The evaluation as it ran before the kernel: the oracle."""
    policy_fn = POLICIES[policy]
    est = (estimated_instance or instance_true).services
    sv, nd = instance_true.services, instance_true.nodes
    placement = np.asarray(placement, dtype=np.int64)
    yields = np.ones(instance_true.num_services)
    for h in np.unique(placement):
        members = np.flatnonzero(placement == h)
        req = sv.req_agg[members, cpu_dim]
        capacity = nd.aggregate[h, cpu_dim] - req.sum()
        true_needs = sv.need_agg[members, cpu_dim]
        est_needs = est.need_agg[members, cpu_dim]
        elem_room = nd.elementary[h, cpu_dim] - sv.req_elem[members, cpu_dim]
        elem_need = sv.need_elem[members, cpu_dim]
        with np.errstate(divide="ignore", invalid="ignore"):
            y_cap = np.where(elem_need > 0,
                             np.clip(elem_room, 0.0, None) / elem_need, 1.0)
        max_useful = np.minimum(y_cap, 1.0) * true_needs
        problem = NodeSharingProblem(
            capacity=max(capacity, 0.0),
            estimated_needs=est_needs,
            true_needs=true_needs,
            max_useful=max_useful,
        )
        consumed = policy_fn(problem)
        yields[members] = problem.yields_from_consumption(consumed)
    return yields


#: Member counts per node: empty, 1-7 (summed in order), 8-128 (eight
#: accumulators) and past 128 (blocks split in half).
SIZES = st.one_of(st.just(0), st.integers(1, 7), st.integers(8, 128),
                  st.integers(129, 180))
#: Per-service amounts, zeros of both signs included.
AMOUNTS = np.array([0.0, -0.0, 0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45,
                    0.7, 1.0])


@st.composite
def sharing_cases(draw):
    D = draw(st.integers(1, 3))
    sizes = draw(st.lists(SIZES, min_size=1, max_size=5).filter(
        lambda s: 0 < sum(s) <= 400))
    H, J = len(sizes), sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    placement = rng.permutation(np.repeat(np.arange(H), sizes))

    def services(need_scale):
        req = rng.choice(AMOUNTS, size=(J, D)) * 0.1
        need = rng.choice(AMOUNTS, size=(J, D)) * need_scale
        elem_need = rng.choice(AMOUNTS, size=(J, D)) * need_scale
        return ServiceArray.from_arrays(req * 0.5, req, elem_need, need)

    # Node capacities from none at all (or a negative zero) to roomy, so
    # some nodes have no capacity left after their requirements and
    # others are contended over several rounds.
    per_member = rng.choice([-0.0, 0.0, 0.01, 0.05, 0.1, 0.2, 0.5],
                            size=(H, D))
    agg = per_member * np.maximum(sizes, 1)[:, None]
    elem = agg * draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    nodes = NodeArray.from_arrays(elem, agg)
    true = ProblemInstance(nodes, services(draw(st.sampled_from([0.1, 1.0]))))
    est = ProblemInstance(nodes, services(draw(st.sampled_from([0.1, 1.0]))))
    return true, est, placement, draw(st.integers(0, D - 1))


#: A node of three unequal members on equal weights: the first round
#: satisfies the small one, the second splits what is left.
MULTI_ROUND = (
    ProblemInstance(
        NodeArray.from_arrays(np.array([[1.0]]), np.array([[0.8]])),
        ServiceArray.from_arrays(np.zeros((3, 1)), np.zeros((3, 1)),
                                 np.zeros((3, 1)),
                                 np.array([[0.1], [0.5], [0.5]]))),
    None, np.zeros(3, dtype=np.int64), 0)


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=sharing_cases())
@example(case=MULTI_ROUND)
def test_kernel_matches_the_per_node_loop_byte_for_byte(backend, policy,
                                                        case):
    true, est, placement, cpu_dim = case
    expected = per_node_loop(true, placement, policy, est, cpu_dim)
    with kernels.kernel_backend(backend):
        got = evaluate_actual_yields(true, placement, policy,
                                     estimated_instance=est, cpu_dim=cpu_dim)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_the_multi_round_case_runs_two_rounds():
    """The hand-built contended node really redistributes: after the
    first round's equal shares a second round hands out the leftover."""
    share = work_conserving_shares(np.ones(3), np.array([0.1, 0.5, 0.5]),
                                   0.8)
    assert share[0] == pytest.approx(0.1)
    assert share[1] == pytest.approx(0.35) and share[2] == pytest.approx(0.35)


def test_policy_codes_follow_the_policy_table():
    assert tuple(POLICIES) == SHARE_POLICIES


def recording_backend():
    """An adapter whose sharing kernel only records that it was called."""
    calls = []
    record = lambda *a: calls.append(a) or 0  # noqa: E731
    return ArrayKernelBackend("stub", SimpleNamespace(share_nodes=record)), \
        calls


def small_instance(J=4, H=2, D=2):
    cap = np.full((H, D), 1.0)
    req = np.full((J, D), 0.05)
    return ProblemInstance(NodeArray.from_arrays(cap, cap),
                           ServiceArray.from_arrays(req, req, req, req))


@pytest.fixture
def stub(monkeypatch):
    backend, calls = recording_backend()
    monkeypatch.setattr(baseline, "get_backend", lambda: backend)
    return calls


class TestRefusedBeforeTheKernel:
    """What the C would follow blindly is refused at the boundary."""

    def test_a_good_call_reaches_the_kernel(self, stub):
        evaluate_actual_yields(small_instance(), np.array([0, 1, 1, 0]),
                               "EQUALWEIGHTS")
        assert len(stub) == 1

    @pytest.mark.parametrize("placement", [[0, 1, 2, 0], [0, 1, 1, 7],
                                           [0, -1, 1, 0], [0, 1, 1]])
    def test_placement_outside_the_nodes(self, stub, placement):
        with pytest.raises(ValueError):
            evaluate_actual_yields(small_instance(), np.array(placement),
                                   "EQUALWEIGHTS")
        assert stub == []

    @pytest.mark.parametrize("J,H", [(5, 2), (3, 2), (4, 3)])
    def test_estimate_of_another_size(self, stub, J, H):
        with pytest.raises(ValueError, match="estimated instance"):
            evaluate_actual_yields(small_instance(), np.array([0, 1, 1, 0]),
                                   "ALLOCWEIGHTS",
                                   estimated_instance=small_instance(J, H))
        assert stub == []

    @pytest.mark.parametrize("cpu_dim", [2, -1, 5])
    def test_cpu_dim_out_of_range(self, stub, cpu_dim):
        with pytest.raises(ValueError, match="cpu_dim"):
            evaluate_actual_yields(small_instance(), np.array([0, 1, 1, 0]),
                                   "ALLOCCAPS", cpu_dim=cpu_dim)
        assert stub == []

    def test_cpu_dim_beyond_the_estimate(self, stub):
        with pytest.raises(ValueError, match="cpu_dim"):
            evaluate_actual_yields(
                small_instance(D=2), np.array([0, 1, 1, 0]), "ALLOCCAPS",
                estimated_instance=small_instance(D=1), cpu_dim=1)
        assert stub == []

    @pytest.mark.parametrize("policy", ["FAIRSHARE", "equalweights",
                                        POLICIES["EQUALWEIGHTS"]])
    def test_unknown_policy(self, stub, policy):
        with pytest.raises(ValueError, match="ALLOCCAPS, ALLOCWEIGHTS, "
                                             "EQUALWEIGHTS"):
            evaluate_actual_yields(small_instance(), np.array([0, 1, 1, 0]),
                                   policy)
        assert stub == []


def share_args(order, counts, policy=0):
    """Arguments of a two-node call; only *order*/*counts* vary."""
    order = np.array(order, dtype=np.int64)
    counts = np.array(counts, dtype=np.int64)
    J, H = len(order), len(counts)
    return ShareNodesArgs(order, counts, *[np.full(J, 0.1)] * 5,
                          np.ones(H), np.ones(H), policy, 1e-12, 1e-12)


class TestShareArgsRefusedBeforeTheKernel:
    """``ArrayKernelBackend.share_nodes`` checks every index the kernel
    follows, whoever builds the arguments."""

    def test_good_arguments_reach_the_kernel(self):
        backend, calls = recording_backend()
        backend.share_nodes(share_args([0, 3, 1, 2], [2, 2]))
        assert len(calls) == 1

    @pytest.mark.parametrize("counts", [[-1, 5], [5, -1]])
    def test_negative_count(self, counts):
        backend, calls = recording_backend()
        with pytest.raises(ValueError, match="counts"):
            backend.share_nodes(share_args([0, 1, 2, 3], counts))
        assert calls == []

    @pytest.mark.parametrize("counts", [[2, 1], [3, 3], [0, 0],
                                        [2 ** 62, 2 ** 62 + 4]])
    def test_counts_not_summing_to_the_services(self, counts):
        backend, calls = recording_backend()
        with pytest.raises(ValueError, match="counts"):
            backend.share_nodes(share_args([0, 1, 2, 3], counts))
        assert calls == []

    @pytest.mark.parametrize("order", [[0, 1, 2, 4], [0, -1, 2, 3]])
    def test_order_outside_the_services(self, order):
        backend, calls = recording_backend()
        with pytest.raises(ValueError, match="order"):
            backend.share_nodes(share_args(order, [2, 2]))
        assert calls == []

    @pytest.mark.parametrize("policy", [-1, 3])
    def test_unknown_policy_code(self, policy):
        backend, calls = recording_backend()
        with pytest.raises(ValueError, match="policy"):
            backend.share_nodes(share_args([0, 1, 2, 3], [2, 2], policy))
        assert calls == []
