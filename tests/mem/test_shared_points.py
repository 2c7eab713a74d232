"""Contention points shared between demands of equal working-set size are
the points a per-demand computation builds, to the bit.

``SharedLlcModel.resolve`` builds one ``ContentionPoint`` per distinct
``wss_bytes`` in a co-running set.  The kernel equivalence test cannot see
a slip here, because its reference kernel shares the LLC model, so both
models are compared with ``==`` against the per-demand loop below.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.contention import ContentionPoint, LlcDemand, SharedLlcModel
from repro.mem.partition import PartitionedLlcModel

CAP = 15_728_640  # the paper's 15360 KB LLC


def per_demand_points(capacity, gamma, demands):
    """One freshly built point per demand."""
    model = SharedLlcModel(capacity, gamma=gamma)
    total = model.unique_demand_bytes(demands)
    oversub = total > capacity
    scale = 1.0 if not oversub else capacity / total
    return [
        ContentionPoint(
            share_bytes=d.wss_bytes * scale,
            hot_fraction=1.0 if d.wss_bytes == 0 else min(1.0, scale) ** gamma,
            total_demand_bytes=total,
            oversubscribed=oversub,
        )
        for d in demands
    ]


def partitioned_points(model, demands):
    points = [None] * len(demands)
    for streaming, capacity in (
        (True, model.streaming_partition_bytes),
        (False, model.main_partition_bytes),
    ):
        idx = [i for i, d in enumerate(demands) if model.is_streaming(d) is streaming]
        if idx:
            for i, pt in zip(idx, per_demand_points(
                capacity, model.gamma, [demands[i] for i in idx]
            )):
                points[i] = pt
    return points


#: few distinct sizes, so repeats (and zeros) are common
demands = st.lists(
    st.builds(
        LlcDemand,
        wss_bytes=st.sampled_from([0, 1, 4096, 1 << 20, 6_000_000, CAP, 2 * CAP]),
        reuse=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        sharing_key=st.one_of(st.none(), st.sampled_from(["a", "b"])),
    ),
    max_size=14,
)


@settings(max_examples=300, deadline=None)
@given(demands=demands, gamma=st.sampled_from([1.0, 2.0, 3.5]))
def test_shared_model_points_equal_per_demand_points(demands, gamma):
    points = SharedLlcModel(CAP, gamma=gamma).resolve(demands)
    assert points == per_demand_points(CAP, gamma, demands)
    for d, p in zip(demands, points):
        first = next(i for i, e in enumerate(demands) if e.wss_bytes == d.wss_bytes)
        assert p is points[first]


@settings(max_examples=300, deadline=None)
@given(demands=demands, gamma=st.sampled_from([1.0, 2.0]))
def test_partitioned_model_points_equal_per_demand_points(demands, gamma):
    model = PartitionedLlcModel(CAP, gamma=gamma)
    assert model.resolve(demands) == partitioned_points(model, demands)
