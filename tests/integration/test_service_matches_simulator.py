"""The simulator and the live admission service make the same decisions.

A simulation records every progress-period call the kernel makes into the
RDA scheduler.  The same calls, in the same order and with the same
demands, are then replayed over a unix socket to an in-process admission
server, one client per simulated thread.  After each call the server's own
state must show the simulator's decision: a begin runs iff the simulator
ran it, an end wakes exactly the threads the simulator woke, and LLC usage
moves in step.  This turns "the service implements the paper's RDA layer"
into a checked claim.

A hypothesis twin replays drawn workloads the same way into a synchronous
:class:`~repro.serve.server.AdmissionService`, with no socket and no event
loop, and checks after every call that no resource sits idle while a
period waits on it (the starvation guard's invariant).
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import default_machine_config
from repro.core.policy import CompromisePolicy, StrictPolicy
from repro.core.progress_period import PeriodState, ResourceKind
from repro.core.rda import RdaScheduler
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import AdmissionServer, AdmissionService, ServeConfig
from repro.sim.kernel import AdmissionDecision, Kernel
from repro.workloads.base import ProcessSpec, Workload
from repro.workloads.suite import workload_by_name

from ..conftest import make_phase

#: bound on how long the server may take to act on one replayed call
STEP_TIMEOUT_S = 2.0


class RecordingScheduler(RdaScheduler):
    """Records each hook call, its decision and the LLC usage after it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []
        #: forced admissions so far, after each call
        self.forced = []

    def on_pp_begin(self, thread, request):
        pp_id, decision = super().on_pp_begin(thread, request)
        run = decision is AdmissionDecision.RUN
        self.calls.append(("begin", thread.tid, request, run, self.llc.usage_bytes))
        self.forced.append(self.forced_admissions)
        return pp_id, decision

    def on_pp_end(self, thread, pp_id):
        woken = super().on_pp_end(thread, pp_id)
        woken_tids = {t.tid for t in woken}
        self.calls.append(("end", thread.tid, woken_tids, self.llc.usage_bytes))
        self.forced.append(self.forced_admissions)
        return woken

    def on_thread_exit(self, thread):
        woken = super().on_thread_exit(thread)
        assert not woken, "a thread exited with a period open"
        return woken


def toy_workload():
    """Oversized periods that make the starvation guard fire, beside
    sibling threads that share one working set."""
    big = ProcessSpec(
        name="big", program=[make_phase(wss_mb=20.0), make_phase(wss_mb=3.0)]
    )
    shared = ProcessSpec(
        name="shared", program=[make_phase(wss_mb=6.0, shared=True)], n_threads=3
    )
    return Workload(name="toy", processes=[big] * 4 + [shared] * 4)


def simulate(workload, policy, machine):
    scheduler = RecordingScheduler(policy=policy, config=machine)
    kernel = Kernel(config=machine, extension=scheduler)
    kernel.launch(workload)
    kernel.run(max_events=5_000_000)
    assert kernel.all_exited
    return scheduler


async def until(predicate):
    """Poll server-side state until ``predicate`` holds (time-bounded)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + STEP_TIMEOUT_S
    while not predicate():
        assert loop.time() < deadline, "the server did not act on the call"
        await asyncio.sleep(0.0002)


async def replay(calls, policy, machine, sock):
    """Replay recorded calls to a live server; returns (server, usage
    after each call)."""
    server = AdmissionServer(ServeConfig(
        policy=policy,
        machine=machine,
        sanitize=True,
        park_timeout_s=None,
        lease_ttl_s=3600.0,
    ))
    await server.start(unix_path=sock)
    run_task = asyncio.ensure_future(server.run_until_drained())
    service = server.service
    llc = service.resources.state(ResourceKind.LLC)
    clients, records, begins, parked = {}, {}, {}, {}
    usage = []
    try:
        for step, call in enumerate(calls):
            kind, tid = call[0], call[1]
            if tid not in clients:
                clients[tid] = await ServeClient.connect(unix_path=sock)
                await clients[tid].hello(f"t{tid}")
                records[tid] = service.leases.get(f"t{tid}")
            client, record = clients[tid], records[tid]
            if kind == "begin":
                _, _, request, run, _ = call
                key = request.sharing_key
                begins[tid] = asyncio.ensure_future(client.pp_begin(
                    request.demand_bytes,
                    reuse=request.reuse.value,
                    label=request.label,
                    sharing_key=None if key is None else repr(key),
                ))
                await until(lambda: record.api.open_count == 1)
                period = record.api.period(record.api.open_ids()[0])
                assert (period.state is PeriodState.RUNNING) == run, (
                    f"call {step}: tid {tid} begin is {period.state.value}, "
                    f"the simulator said {'RUN' if run else 'WAIT'}"
                )
                if not run:
                    parked[tid] = period
            else:
                woken_sim = call[2]
                admitted = await asyncio.wait_for(begins.pop(tid), STEP_TIMEOUT_S)
                await client.pp_end(admitted["pp_id"])
                woken = {
                    t for t, p in parked.items()
                    if p.state is PeriodState.RUNNING
                }
                for t in woken:
                    del parked[t]
                assert woken == woken_sim, (
                    f"call {step}: tid {tid} end woke {sorted(woken)}, the "
                    f"simulator woke {sorted(woken_sim)}"
                )
            usage.append(llc.usage_bytes)
        assert not parked and not begins
    finally:
        for client in clients.values():
            await client.close()
        server.request_drain()
        await asyncio.wait_for(run_task, 5.0)
    return server, usage


POLICIES = {
    "strict": StrictPolicy(),
    "compromise2": CompromisePolicy(oversubscription=2.0),
}
CASES = [
    pytest.param(name, policy, id=f"{name}-{label}")
    for name in ("Water_nsq", "BLAS-3", "toy")
    for label, policy in POLICIES.items()
]


@pytest.mark.parametrize("name, policy", CASES)
def test_service_makes_the_simulators_decisions(name, policy, tmp_path):
    machine = default_machine_config()
    workload = toy_workload() if name == "toy" else workload_by_name(name)
    scheduler = simulate(workload, policy, machine)
    server, usage = asyncio.run(
        replay(scheduler.calls, policy, machine, str(tmp_path / "rda.sock"))
    )
    service = server.service
    assert usage == [call[-1] for call in scheduler.calls]  # peaks too
    assert service.forced_admissions == scheduler.forced_admissions
    assert service.resources.state(ResourceKind.LLC).usage_bytes == 0
    assert service.sanitizer.ok, service.sanitizer.summary()
    if name == "toy" and isinstance(policy, StrictPolicy):
        assert scheduler.forced_admissions > 0  # the guard was exercised


# ----------------------------------------------------------------------
# the twin: drawn workloads, replayed into a synchronous service
# ----------------------------------------------------------------------
class Conn:
    """The service's view of one simulated thread's connection."""

    def __init__(self, service):
        self.record = service.make_record()
        self.record.session = self
        self.closed = False
        self.movable = False

    def close(self):
        self.closed = True


def decide(service, conn, op, **fields):
    request = protocol.parse_request(
        {"v": protocol.PROTOCOL_VERSION, "id": 1, "op": op, **fields}
    )
    return request, service.decide(conn, request)


def assert_no_idle_resource_has_a_waiter(service, step):
    for kind in service.managed_kinds:
        if service.resources.state(kind).usage_bytes == 0:
            assert service.waitlist.peek(kind) is None, (
                f"call {step}: {kind} is idle with a period waiting on it"
            )


def replay_sync(scheduler, policy, machine):
    """Replay recorded calls into a synchronous service as the server
    carries them: a woken parked begin is answered before the next call."""
    now = [0.0]
    service = AdmissionService(
        ServeConfig(
            policy=policy, machine=machine, sanitize=True,
            park_timeout_s=None, lease_ttl_s=3600.0,
        ),
        clock=lambda: now[0],
    )
    conns, admitted, parked = {}, {}, {}
    for step, call in enumerate(scheduler.calls):
        now[0] += 0.001
        kind, tid = call[0], call[1]
        if tid not in conns:
            conns[tid] = Conn(service)
            decide(service, conns[tid], "hello", client=f"t{tid}")
        if kind == "begin":
            _, _, request, run, _ = call
            key = request.sharing_key
            begin, decision = decide(
                service, conns[tid], "pp_begin",
                demand_bytes=request.demand_bytes, reuse=request.reuse.value,
                label=request.label,
                sharing_key=None if key is None else repr(key),
            )
            assert (decision.park is None) == run, (
                f"call {step}: tid {tid} begin "
                f"{'ran' if decision.park is None else 'parked'}, the "
                f"simulator said {'RUN' if run else 'WAIT'}"
            )
            assert not decision.woken
            if run:
                admitted[tid] = decision.reply["pp_id"]
            else:
                parked[tid] = (begin, decision.park)
        else:
            assert tid in admitted, f"call {step}: tid {tid} ends unadmitted"
            _, decision = decide(
                service, conns[tid], "pp_end", pp_id=admitted.pop(tid)
            )
            woken = {t for t, (_, p) in parked.items() if p in decision.woken}
            assert len(woken) == len(decision.woken)
            for t in woken:
                begin, period = parked.pop(t)
                verdict = service.park_ended(conns[t], begin, period, False)
                admitted[t] = verdict.reply["pp_id"]
                assert verdict.reply["admitted"] and not verdict.woken
            assert woken == call[2], (
                f"call {step}: tid {tid} end woke {sorted(woken)}, the "
                f"simulator woke {sorted(call[2])}"
            )
        assert service.llc.usage_bytes == call[-1], f"call {step}: usage"
        assert service.forced_admissions == scheduler.forced[step], (
            f"call {step}: forced admissions"
        )
        assert_no_idle_resource_has_a_waiter(service, step)
    assert not parked and not admitted
    return service


@st.composite
def drawn_workloads(draw):
    """2-6 processes of 1-3 threads; phases of 0.5-20 MB (past the LLC,
    so the guard fires), each at a drawn reuse level, some shared."""
    processes = [
        ProcessSpec(
            name=f"proc{i}",
            program=[
                make_phase(
                    name=f"phase{j}",
                    wss_mb=draw(st.floats(0.5, 20.0)),
                    reuse=draw(st.sampled_from((0.1, 0.55, 0.92))),
                    shared=draw(st.booleans()),
                )
                for j in range(draw(st.integers(1, 3)))
            ],
            n_threads=draw(st.integers(1, 3)),
        )
        for i in range(draw(st.integers(2, 6)))
    ]
    return Workload(name="drawn", processes=processes)


#: Strict, or Compromise(x)
DRAWN_POLICIES = st.sampled_from((None, 1.5, 2.0, 3.0)).map(
    lambda x: StrictPolicy() if x is None else CompromisePolicy(oversubscription=x)
)


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workload=drawn_workloads(), policy=DRAWN_POLICIES)
def test_the_synchronous_service_makes_the_simulators_decisions(
    workload, policy
):
    machine = default_machine_config()
    scheduler = simulate(workload, policy, machine)
    service = replay_sync(scheduler, policy, machine)
    assert service.forced_admissions == scheduler.forced_admissions
    assert service.llc.usage_bytes == 0
    assert service.sanitizer.ok, service.sanitizer.summary()
