"""The round loop HATP, ADDATP and HNTP share: the schedule decides carrying.

A node's rounds may keep their RR sets from one round to the next only
when every θ_i is fixed before any set is drawn.  If θ_i could depend on
earlier front estimates, a kept set would help choose the size of the
sample it sits in, and the per-round concentration bound (which assumes a
fixed sample size) would no longer cover the estimate: the flaw Chen found
in IMM's reuse (arXiv:1808.09363).  The property below feeds each
schedule's refine step two front-estimate sequences and asks
:func:`refine_until_decided` whether it carried: a schedule whose θs can
differ must regenerate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AdditiveErrorSchedule, HybridErrorSchedule
from repro.core.estimation import FrontRearEstimator, RoundCaps, refine_until_decided
from repro.core.hntp import HNTP
from repro.graphs import generators
from repro.graphs.residual import as_residual
from repro.graphs.weighting import weighted_cascade
from repro.utils.exceptions import SamplingBudgetExceeded, ValidationError

NUM_ACTIVE = 100

SCHEDULES = {
    "additive": AdditiveErrorSchedule(zeta0=0.3, delta0=1e-3),
    "hybrid": HybridErrorSchedule(epsilon0=0.5, zeta0=0.3, delta0=1e-3),
}

#: Front estimates of the rounds after the first, on the spread scale.
FRONTS = st.lists(
    st.floats(0.0, 10.0 * NUM_ACTIVE, allow_nan=False), min_size=6, max_size=6
)


def theta_sequence(schedule, fronts):
    """The θ of every round when the rounds' front estimates are ``fronts``."""
    state = schedule.initial()
    thetas = [schedule.sample_size(state)]
    for front in fronts:
        state = schedule.refine(state, NUM_ACTIVE, front)
        thetas.append(schedule.sample_size(state))
    return thetas


def carries(schedule):
    """Whether :func:`refine_until_decided` kept the sets of earlier rounds."""
    graph = weighted_cascade(generators.barabasi_albert(60, 2, random_state=4))
    estimator = FrontRearEstimator(as_residual(graph), 0, [], [1, 2], np.random.default_rng(5))
    rounds = refine_until_decided(
        estimator,
        schedule,
        lambda state, front, rear: (False, False),
        NUM_ACTIVE,
        RoundCaps(max_rounds=4, max_samples_per_round=10**6),
        "test",
    )
    assert rounds.stop_reason == "round_cap" and len(rounds.thetas) == 4
    if rounds.rr_sets_generated == 2 * sum(rounds.thetas):
        return False
    assert rounds.rr_sets_generated == 2 * rounds.thetas[-1]
    return True


@pytest.fixture(scope="module")
def carried():
    return {name: carries(schedule) for name, schedule in SCHEDULES.items()}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@settings(max_examples=100, deadline=None)
@given(first=FRONTS, second=FRONTS)
def test_only_a_schedule_whose_estimates_cannot_move_its_thetas_carries(
    carried, name, first, second
):
    schedule = SCHEDULES[name]
    if theta_sequence(schedule, first) != theta_sequence(schedule, second):
        assert not carried[name], f"{name}: θ follows the estimates, yet sets are kept"
    assert carried[name] == schedule.fixed_thetas


def test_additive_carries_and_hybrid_regenerates(carried):
    # The property above is not vacuous: the hybrid schedule's θs do follow
    # the front estimate, and the additive schedule's sets are kept.
    hybrid = SCHEDULES["hybrid"]
    assert theta_sequence(hybrid, [0.0] * 6) != theta_sequence(hybrid, [1e4] * 6)
    assert carried == {"additive": True, "hybrid": False}


def test_round_caps_are_checked():
    with pytest.raises(ValidationError):
        RoundCaps(max_rounds=0, max_samples_per_round=10)
    with pytest.raises(ValidationError):
        RoundCaps(max_rounds=1, max_samples_per_round=0)


def test_hntp_names_itself_when_a_cap_raises(star6):
    with pytest.raises(SamplingBudgetExceeded, match="HNTP hit its sampling budget"):
        HNTP([0, 1], max_samples_per_round=5, on_budget="raise", random_state=0).select(
            star6, {0: 1.0, 1: 1.0}
        )
