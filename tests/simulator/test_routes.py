"""One route per wire: every channel, tag and replayed leg on one
``(src, dst)`` pair shares the run's route, so the network prices each
``(src, dst, nbytes)`` once per run."""

from collections import Counter

from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine
from tests.pins import spmd

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


class CountingNetwork(HomogeneousNetwork):
    def __init__(self, nranks, params):
        super().__init__(nranks, params)
        self.asked = Counter()

    def transfer_time(self, src, dst, nbytes):
        self.asked[src, dst, nbytes] += 1
        return super().transfer_time(src, dst, nbytes)


class ChannelSpy(Engine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made = []

    def _make_channel(self, src, dst, tag):
        chan = super()._make_channel(src, dst, tag)
        self.made.append(chan)
        return chan


def test_two_tags_and_a_replayed_leg_on_one_pair_share_one_price():
    def body(ctx):
        block = PhantomArray((64,))
        for tag in (0, 1):
            if ctx.rank == 0:
                yield from ctx.world.send(block, 1, tag)
            else:
                yield from ctx.world.recv(0, tag)
        yield from ctx.world.bcast(block if ctx.rank == 0 else None, root=0,
                                   algorithm="binomial")

    network = CountingNetwork(2, PARAMS)
    engine = ChannelSpy(network)
    result = engine.run(spmd(2, body)())
    assert result.replay["replayed"] == 1
    assert network.asked == {(0, 1, 512): 1}
    assert [(c.src, c.dst) for c in engine.made] == [(0, 1), (0, 1)]
    assert engine.made[0].tag != engine.made[1].tag
    assert engine.made[0].route is engine.made[1].route
