"""Every predictor refusal names the offending feature and suggests a
fallback backend — one test per refusal branch.

The contract (``repro.simulator.predictor._refuse``): the message
contains ``backend='predictor' cannot price``, the feature name in
quotes, and a ``fallback: use backend=...`` clause naming a backend
that supports the feature.
"""


import numpy as np
import pytest

from repro.core.cyclic import run_cyclic
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.payloads import PhantomArray
from repro.simulator.backends import resolve_backend
from repro.simulator.predictor import _require_predictable
from repro.verify import VerifyOptions


def _phantoms(n=64):
    return PhantomArray((n, n)), PhantomArray((n, n))


def _refusal(excinfo, feature, fallback_fragment):
    msg = str(excinfo.value)
    assert "backend='predictor' cannot price" in msg
    assert f"'{feature}'" in msg
    assert "fallback: use" in msg
    assert fallback_fragment in msg
    return msg


class TestRunnerRefusals:
    def test_concrete_data(self):
        A = np.ones((64, 64))
        B = np.ones((64, 64))
        with pytest.raises(ConfigurationError) as exc:
            run_summa(A, B, grid=(2, 2), block=16, backend="predictor")
        msg = _refusal(exc, "concrete data", "backend='des'")
        assert "Phantom" in msg  # tells the caller the scale-mode fix

    def test_fault_injection(self):
        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_summa(A, B, grid=(2, 2), block=16, backend="predictor",
                      faults="kill(rank=1,t=0.5)")
        _refusal(exc, "fault injection", "backend='des'")

    def test_verify(self):
        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_summa(A, B, grid=(2, 2), block=16, backend="predictor",
                      verify=VerifyOptions())
        _refusal(exc, "verify", "backend='des'")

    def test_contention(self):
        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_summa(A, B, grid=(2, 2), block=16, backend="predictor",
                      contention=True)
        _refusal(exc, "contention", "backend='des'")

    def test_trace(self):
        with pytest.raises(ConfigurationError) as exc:
            _require_predictable("summa", phantom=True, faults=None,
                                 verify=None, contention=False, trace=True)
        _refusal(exc, "trace", "backend='des'")

    def test_overlap(self):
        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_cyclic(A, B, grid=(2, 2), nb=16, backend="predictor",
                       overlap=True)
        msg = _refusal(exc, "overlap", "backend='des'")
        assert "macro" in msg


class TestPipelinedBcastRefusals:
    """The phase chain prices collectives bulk-synchronously, so every
    segmented-family algorithm is refused by name — one test per new
    algorithm — rather than silently mis-priced at its s=1 shape."""

    @pytest.mark.parametrize("algorithm",
                             ["segmented", "fourcolor", "hypersystolic"])
    def test_summa_refuses_each_new_algorithm(self, algorithm):
        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_summa(A, B, grid=(2, 2), block=16, backend="predictor",
                      bcast=algorithm)
        msg = _refusal(exc, f"pipelined broadcast {algorithm}",
                       "backend='macro'")
        assert "stage overlap" in msg

    @pytest.mark.parametrize("algorithm",
                             ["segmented", "fourcolor", "hypersystolic"])
    def test_hsumma_refuses_each_new_algorithm(self, algorithm):
        from repro.core.hsumma import run_hsumma

        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_hsumma(A, B, grid=(4, 4), groups=4, outer_block=16,
                       backend="predictor", inner_bcast=algorithm)
        _refusal(exc, f"pipelined broadcast {algorithm}",
                 "backend='macro'")

    def test_cyclic_refuses_pipelined_family(self):
        from repro.mpi.comm import CollectiveOptions

        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_cyclic(A, B, grid=(2, 2), nb=16, backend="predictor",
                       options=CollectiveOptions(bcast="hypersystolic"))
        _refusal(exc, "pipelined broadcast hypersystolic",
                 "backend='macro'")

    def test_legacy_pipelined_chain_is_grandfathered(self):
        """The plain pipelined chain predates the refusal policy and
        keeps its bulk-synchronous closed-form price."""
        A, B = _phantoms()
        _, sim = run_summa(A, B, grid=(2, 2), block=16,
                           backend="predictor", bcast="pipelined")
        assert sim.total_time > 0

    def test_overlap_runner_refuses_predictor(self):
        from repro.core.overlap import run_summa_overlap

        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_summa_overlap(A, B, grid=(2, 2), block=16,
                              backend="predictor")
        msg = _refusal(exc, "overlap", "backend='des'")
        assert "macro" in msg

    def test_hsumma_overlap_runner_refuses_predictor(self):
        from repro.core.overlap import run_hsumma_overlap

        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            run_hsumma_overlap(A, B, grid=(4, 4), groups=4,
                               outer_block=16, backend="predictor")
        _refusal(exc, "overlap", "backend='des'")


class TestNewChainRunnersStopRefusing:
    """Runners that gained predictor chains this release must price a
    clean scale-mode query instead of refusing it."""

    def test_cannon_predicts(self):
        from repro.algorithms.cannon import run_cannon

        A, B = _phantoms()
        _, sim = run_cannon(A, B, grid=(4, 4), backend="predictor")
        assert sim.total_time > 0

    def test_fox_predicts(self):
        from repro.algorithms.fox import run_fox

        A, B = _phantoms()
        _, sim = run_fox(A, B, grid=(4, 4), backend="predictor")
        assert sim.total_time > 0

    def test_dns3d_predicts(self):
        from repro.algorithms.dns3d import run_dns3d

        A, B = _phantoms()
        _, sim = run_dns3d(A, B, nprocs=64, backend="predictor")
        assert sim.total_time > 0

    def test_25d_predicts(self):
        from repro.algorithms.algo25d import run_25d

        A, B = _phantoms()
        _, sim = run_25d(A, B, nprocs=32, replication=2,
                         backend="predictor")
        assert sim.total_time > 0

    @pytest.mark.parametrize("runner_kwargs", [
        ("cannon", dict(grid=(4, 4))),
        ("fox", dict(grid=(4, 4))),
        ("dns3d", dict(nprocs=64)),
        ("25d", dict(nprocs=32, replication=2)),
    ], ids=lambda rk: rk[0])
    def test_new_chains_still_refuse_pipelined(self, runner_kwargs):
        from repro.algorithms.algo25d import run_25d
        from repro.algorithms.cannon import run_cannon
        from repro.algorithms.dns3d import run_dns3d
        from repro.algorithms.fox import run_fox
        from repro.mpi.comm import CollectiveOptions

        name, kwargs = runner_kwargs
        runner = {"cannon": run_cannon, "fox": run_fox,
                  "dns3d": run_dns3d, "25d": run_25d}[name]
        A, B = _phantoms()
        with pytest.raises(ConfigurationError) as exc:
            runner(A, B, backend="predictor",
                   options=CollectiveOptions(bcast="hypersystolic"),
                   **kwargs)
        _refusal(exc, "pipelined broadcast hypersystolic",
                 "backend='macro'")


class TestLegitimateRefusals:
    """Runners without a closed form keep refusing — by named feature,
    with the fallback backend spelled out."""

    def test_lu_refuses_with_named_fallback(self):
        from repro.factorization.lu import run_block_lu

        A = PhantomArray((64, 64))
        with pytest.raises(ConfigurationError) as exc:
            run_block_lu(A, grid=(2, 2), block=16, backend="predictor")
        msg = _refusal(exc, "data-dependent panel ownership",
                       "backend='macro'")
        assert "backend='des'" in msg

    def test_qr_refuses_with_named_fallback(self):
        from repro.factorization.qr import run_block_qr

        A = PhantomArray((64, 64))
        with pytest.raises(ConfigurationError) as exc:
            run_block_qr(A, grid=(2, 2), block=16, backend="predictor")
        msg = _refusal(exc, "data-dependent reflector flow",
                       "backend='macro'")
        assert "backend='des'" in msg


class TestCosterRefusal:
    def test_participant_dependent_coster(self):
        """A topology-positional network, or a homogeneous one with a
        second tier inside a node, has no participant-count form; the
        refusal points at the macro backend, which can step the very
        same coster."""
        from repro.network.homogeneous import HomogeneousNetwork
        from repro.network.mapping import block_mapping
        from repro.network.model import HockneyParams
        from repro.network.tree import SwitchedCluster

        A, B = _phantoms()
        params = HockneyParams(1e-6, 1e-10)
        for network in (
            SwitchedCluster(nnodes=4, nodes_per_switch=2, params=params),
            HomogeneousNetwork(4, params,
                               intra_params=HockneyParams(1e-7, 1e-11),
                               mapping=block_mapping(4, 2)),
        ):
            with pytest.raises(ConfigurationError) as exc:
                run_summa(A, B, grid=(2, 2), block=16, backend="predictor",
                          network=network)
            msg = str(exc.value)
            assert "participant-dependent costs" in msg
            assert "backend='macro'" in msg


class TestBackendObject:
    def test_faulted_backend_construction_refuses(self):
        from repro.faults import parse_fault_spec
        from repro.network.homogeneous import HomogeneousNetwork
        from repro.simulator.runtime import DEFAULT_PARAMS

        network = HomogeneousNetwork(4, DEFAULT_PARAMS)
        schedule = parse_fault_spec("kill(rank=1,t=0.5)", seed=0)
        with pytest.raises(ConfigurationError) as exc:
            resolve_backend("predictor", network, faults=schedule)
        msg = str(exc.value)
        assert "'fault injection'" in msg
        assert "fallback: use backend='des'" in msg

    @pytest.mark.parametrize("verify", [None, True])
    def test_spmd_run_refuses_before_building_a_program(self, verify):
        from repro.simulator.runtime import run_spmd

        built = []

        def program(ctx):
            built.append(ctx.rank)
            return iter(())

        with pytest.raises(ConfigurationError) as exc:
            run_spmd(program, 4, backend="predictor", verify=verify)
        msg = str(exc.value)
        assert "cannot execute rank programs" in msg
        assert "summa" in msg and "backend='predictor'" in msg
        assert built == []
