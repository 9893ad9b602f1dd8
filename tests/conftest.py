import os
import sys

import pytest

from dickelab import solver

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def budget_below(monkeypatch):
    """budget_below(params, parities) lowers solver.BAND_BUDGET to one byte
    below the smallest band that the seed windows of these sectors take, so
    that they, and every window with a larger band, are refused."""

    def lower(params, parities=("even", "odd")):
        seed = solver.truncation_seed(params)
        budget = min(solver.band_bytes(seed["lambda_seed"], parity, seed["nu_lo"],
                                       seed["ne_lo"], seed["ne_hi"])[1]
                     for parity in parities) - 1
        monkeypatch.setattr(solver, "BAND_BUDGET", budget)
        return budget

    return lower
