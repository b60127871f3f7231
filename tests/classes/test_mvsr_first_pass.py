"""``is_mvsr_fixed``'s first pass: the MVSG under the installed order.

The first pass may only say True where a serial order really serves
every read its pinned source; when the graph under the installed
version order has a cycle it declines and the polygraph search decides.
"""

import random

import pytest

from repro.classes.mvsr import (
    _installed_order_certifies,
    _polygraph_search,
    is_mvsr_fixed,
    mvsr_serializations,
)
from repro.model.enumeration import random_schedule
from repro.model.parsing import parse_schedule
from repro.model.schedules import T_INIT

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def serial_sources(schedule, order):
    """Each non-own read's source when ``order`` runs serially."""
    position = {t: k for k, t in enumerate(order)}
    sources, own = {}, set()
    for i, step in enumerate(schedule):
        if step.is_write:
            own.add((step.txn, step.entity))
            continue
        if (step.txn, step.entity) in own:
            continue
        source = T_INIT
        for t in order[: position[step.txn]]:
            if any(schedule[w].txn == t for w in schedule.writes_of(step.entity)):
                source = t
        sources[i] = source
    return sources


def random_pins(schedule, rng):
    """Pin every non-own read to a random realizable source."""
    pins, own, written = {}, set(), {}
    for i, step in enumerate(schedule):
        key = (step.txn, step.entity)
        if step.is_write:
            own.add(key)
            written.setdefault(step.entity, [])
            if step.txn not in written[step.entity]:
                written[step.entity].append(step.txn)
        elif key not in own:
            pins[i] = rng.choice([T_INIT, *written.get(step.entity, ())])
    return pins


class TestFallback:
    def test_cycle_under_write_order_falls_back_to_the_search(self):
        # R3(x) reads T1's x although T2 wrote x later: under the
        # installed order T3 -> T2 -> T3.  Serial T2, T1, T3 serves both.
        s = parse_schedule("W1(x) W2(x) W2(y) R3(x) R3(y)")
        pins = {3: 1, 4: 2}
        assert not _installed_order_certifies(s, pins)
        assert is_mvsr_fixed(s, pins)
        assert [2, 1, 3] in list(mvsr_serializations(s))
        assert serial_sources(s, [2, 1, 3]) == pins

    def test_declines_free_and_foreign_pins(self):
        s = parse_schedule("W1(x) R2(x) W2(x) R2(x)")
        assert _installed_order_certifies(s, {1: 1})
        assert not _installed_order_certifies(s, {})  # free read
        assert not _installed_order_certifies(s, {1: 1, 3: 1})  # own read
        assert not _installed_order_certifies(s, {1: 2})  # not yet written

    def test_agrees_with_the_search_on_random_pins(self):
        rng = random.Random(5)
        for _ in range(300):
            s = random_schedule(
                rng.randint(2, 4), ["x", "y"], rng.randint(1, 3), rng
            )
            pins = random_pins(s, rng)
            if _installed_order_certifies(s, pins):
                assert _polygraph_search(s, pins), (str(s), pins)
            assert is_mvsr_fixed(s, pins) == _polygraph_search(s, pins)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4),
       st.integers(1, 3))
def test_first_pass_true_implies_a_witness(rng, n_txns, steps):
    s = random_schedule(n_txns, ["x", "y", "z"], steps, rng)
    pins = random_pins(s, rng)
    if _installed_order_certifies(s, pins):
        assert any(
            serial_sources(s, order) == pins
            for order in mvsr_serializations(s)
        ), (str(s), pins)
