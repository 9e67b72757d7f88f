"""A stream's routes belong to machine slots: a job placed where an
earlier one ran asks the machine nothing new."""

from collections import Counter

from repro.cluster import JobSpec, serve
from repro.mpi.comm import CollectiveOptions
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


class CountingTorus(Torus3D):
    def __init__(self, dims, params):
        super().__init__(dims, params)
        self.times = Counter()
        self.routes = Counter()

    def transfer_time(self, src, dst, nbytes):
        self.times[src, dst, nbytes] += 1
        return super().transfer_time(src, dst, nbytes)

    def links(self, src, dst):
        self.routes[src, dst] += 1
        return super().links(src, dst)


def test_a_job_on_an_earlier_jobs_slots_asks_the_machine_nothing_new():
    machine = CountingTorus((4, 2, 2), PARAMS)
    stream = serve([JobSpec(jid=0, arrival=0.0, n=256, p=16),
                    JobSpec(jid=1, arrival=0.0, n=256, p=16)],
                   machine=machine,
                   options=CollectiveOptions(bcast="vandegeijn"))
    first, second = stream.records
    assert [first.status, second.status] == ["done", "done"]
    # Sixteen slots: the second job waits for the first and runs on
    # every slot it used.
    assert second.first_start >= first.finish
    assert machine.times and set(machine.times.values()) == {1}
    assert machine.routes and set(machine.routes.values()) == {1}
