"""Every examined node records why its refinement rounds stopped.

``IterationRecord.stop_reason`` is ``"C1"``, ``"C2"``, ``"sample_cap"`` or
``"round_cap"`` for selected and rejected nodes of HATP, ADDATP and HNTP
(the first that holds, in that order) and ``None`` for skipped nodes, so
the cap-forced decisions that ``extra["budget_hits"]`` counts can be told
apart node by node.  ``IterationRecord.thetas`` lists each round's θ.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.addatp import ADDATP
from repro.core.hatp import HATP
from repro.core.hntp import HNTP
from repro.core.results import CAP_REASONS, STOP_REASONS, stop_reason
from repro.core.session import AdaptiveSession
from repro.diffusion.realization import Realization
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(generators.barabasi_albert(100, 3, random_state=1))


@pytest.fixture(scope="module")
def target(graph):
    return [int(v) for v in np.argsort(-graph.out_degrees)[:8]]


def run(cls, graph, target, **kwargs):
    costs = {node: 2.0 for node in target}
    algorithm = cls(target, random_state=7, **kwargs)
    if cls is HNTP:
        return algorithm.select(graph, costs)
    return algorithm.run(AdaptiveSession(graph, Realization.sample(graph, 5), costs))


ALGORITHMS = [HATP, ADDATP, HNTP]


def test_priority_order():
    assert stop_reason(False, False, False, False) is None
    assert stop_reason(True, True, True, True) == "C1"
    assert stop_reason(False, True, True, True) == "C2"
    assert stop_reason(False, False, True, True) == "sample_cap"
    assert stop_reason(False, False, False, True) == "round_cap"


@pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda cls: cls.name)
@pytest.mark.parametrize(
    "caps, expected",
    [
        (dict(max_samples_per_round=50, max_rounds=30), "sample_cap"),
        (dict(max_samples_per_round=10**7, max_rounds=1), "round_cap"),
    ],
    ids=["sample-cap", "round-cap"],
)
def test_cap_reasons_count_budget_hits(cls, caps, expected, graph, target):
    result = run(cls, graph, target, **caps)
    for record in result.iterations:
        if record.action == "skipped-activated":
            assert record.stop_reason is None
        else:
            assert record.stop_reason in STOP_REASONS
    capped = sum(record.stop_reason in CAP_REASONS for record in result.iterations)
    assert capped == result.extra["budget_hits"]
    assert expected in {record.stop_reason for record in result.iterations}


@pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda cls: cls.name)
def test_uncapped_instance_is_decided_by_the_conditions(cls, graph, target):
    result = run(cls, graph, target, max_samples_per_round=10**7, max_rounds=30)
    reasons = Counter(
        r.stop_reason for r in result.iterations if r.action != "skipped-activated"
    )
    assert reasons and set(reasons) <= {"C1", "C2"}
    assert result.extra["budget_hits"] == 0


#: RR sets a node's rounds draw, from its θs: HATP and HNTP regenerate two
#: batches of θ_i sets every round; ADDATP carries its sets, so its two
#: keys end at θ_last sets each (its θs never shrink).
DRAWN = {
    "HATP": lambda thetas: 2 * sum(thetas),
    "ADDATP": lambda thetas: 2 * thetas[-1],
    "HNTP": lambda thetas: 2 * sum(thetas),
}


@pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda cls: cls.name)
def test_every_round_records_its_theta(cls, graph, target):
    # The recorded θs account for every RR set the node cost.
    result = run(cls, graph, target, max_samples_per_round=3000, max_rounds=30)
    drawn = DRAWN[cls.name]
    examined = [r for r in result.iterations if r.action != "skipped-activated"]
    assert examined
    assert any(record.rounds > 1 for record in examined)
    for record in examined:
        assert len(record.thetas) == record.rounds >= 1
        assert list(record.thetas) == sorted(record.thetas)
        assert record.rr_sets_generated == drawn(record.thetas)
        assert all(0 < theta <= 3000 for theta in record.thetas)
    skipped = [r for r in result.iterations if r.action == "skipped-activated"]
    assert all(r.thetas == () for r in skipped)
    assert result.rr_sets_generated == sum(drawn(r.thetas) for r in examined)
