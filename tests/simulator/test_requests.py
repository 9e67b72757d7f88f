"""Unit tests for request objects and payload size inference."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine
from repro.simulator.requests import (
    ComputeRequest,
    RequestHandle,
    SendRequest,
    payload_nbytes,
)


class TestPayloadNbytes:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10)) == 80

    def test_phantom(self):
        assert payload_nbytes(PhantomArray((4, 4))) == 128

    def test_bytes(self):
        assert payload_nbytes(b"hello") == 5

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_scalar(self):
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(7) == 8

    def test_sequence_sums(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40

    def test_nested_tuple(self):
        assert payload_nbytes((1, (2.0, b"ab"))) == 18

    def test_unknown_rejected(self):
        with pytest.raises(SimulationError, match="wire size"):
            payload_nbytes(object())


class TestRequests:
    def test_send_infers_nbytes(self):
        req = SendRequest(1, 0, np.zeros(5))
        assert req.nbytes == 40

    def test_send_explicit_nbytes(self):
        req = SendRequest(1, 0, None, nbytes=123)
        assert req.nbytes == 123

    def test_compute_rejects_negative(self):
        with pytest.raises(SimulationError):
            ComputeRequest(-1.0)

    def test_wait_requires_handle(self):
        def prog():
            yield "not a handle"

        engine = Engine(HomogeneousNetwork(1, HockneyParams(1e-5, 1e-9)))
        with pytest.raises(SimulationError, match="unknown request"):
            engine.run([prog()])

    def test_handle_initial_state(self):
        h = RequestHandle(3, "recv")
        assert not h.done
        assert h.rank == 3
        assert h.payload is None
