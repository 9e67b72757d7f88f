"""Anti-drift tests: the SUMMA/HSUMMA/broadcast closed forms live in
exactly one package (`repro.costs`), under one name each.  If someone
re-introduces a local copy of a formula, or a second import path for
one, these tests fail."""


import pytest

from repro import costs
from repro.costs.registry import BCAST_ENTRIES, SMOOTH_MODELS
from repro.network.model import HockneyParams

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestSingleSourceOfTruth:
    def test_the_optimizer_carries_no_second_name(self):
        from repro.models import optimizer

        assert not {"critical_ratio", "crossover_processor_count",
                    "hsumma_beats_summa", "predicted_extremum_kind",
                    "vdg_cost_derivative"} & set(vars(optimizer))


class TestDiscreteSmoothAgreement:
    """The discrete (DES-matching) and smooth (optimizer-friendly)
    factor flavours agree exactly at powers of two — where
    ceil(log2 p) == log2 p — for every registered broadcast."""

    @pytest.mark.parametrize("p", [2, 4, 8, 64, 1024])
    def test_latency_agrees_at_powers_of_two(self, p):
        for name, entry in BCAST_ENTRIES.items():
            assert entry.L(p) == pytest.approx(entry.L_smooth(float(p))), name

    @pytest.mark.parametrize("p", [2, 4, 8, 64, 1024])
    def test_bandwidth_agrees_at_powers_of_two(self, p):
        for name, entry in BCAST_ENTRIES.items():
            assert entry.W(p) == pytest.approx(entry.W_smooth(float(p))), name

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_collectives_and_models_price_bcasts_identically(self, p):
        """At powers of two the per-byte collectives path and the
        per-element models path give the same broadcast time."""
        m_bytes = 8192
        for name in ("binomial", "vandegeijn", "flat"):
            discrete = costs.bcast_time(name, m_bytes, p, PARAMS)
            smooth = SMOOTH_MODELS[name].time(
                float(m_bytes), float(p), PARAMS.alpha, PARAMS.beta
            )
            assert discrete == pytest.approx(smooth, rel=1e-12), name
