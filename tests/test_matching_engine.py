"""Differential tests: counting matching engine vs legacy scan path.

The broker-wide :class:`~repro.pubsub.matching.CountingMatchingEngine` must
be *event-for-event identical* to the per-neighbour scan path — same
matched neighbours, same matched client entries, in the same order — under
randomized workloads covering every :class:`~repro.pubsub.filters.Op`
variant, adversarial event values (NaN topics and attributes, ``None``,
strings, bools), labelled client entries, table churn including in-place
filter replacement, and MHH's direct table surgery. Any divergence is a routing bug, so these tests drive both
implementations with identical inputs and assert equality after every
mutation batch.
"""

import math
import random

import pytest

from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Op,
    RangeFilter,
)
from repro.pubsub.matching import CountingMatchingEngine
from repro.pubsub.system import PubSubSystem

NEIGHBORS = [1, 2, 7, 9]
ATTRS = ["topic", "kind", "size", "region", "flag"]


# ---------------------------------------------------------------------------
# random workload generation (seeded, deterministic)
# ---------------------------------------------------------------------------
def random_filter(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        lo = rng.uniform(0.0, 0.9)
        return RangeFilter(lo, lo + rng.uniform(0.0, 0.3))
    if kind == 1:
        lo = rng.uniform(0.0, 50.0)
        return RangeFilter(lo, lo + rng.uniform(0.0, 20.0), attr="size")
    n = rng.randrange(0, 4)
    return ConjunctionFilter([random_constraint(rng) for _ in range(n)])


def random_constraint(rng: random.Random) -> AttributeConstraint:
    op = rng.choice(list(Op))
    attr = rng.choice(ATTRS)
    if op is Op.RANGE:
        if rng.random() < 0.2:
            # non-numeric bounds exercise the exact-check fallback
            lo, hi = sorted([rng.choice("abcx"), rng.choice("cxyz")])
            return AttributeConstraint(attr, op, (lo, hi))
        lo = rng.uniform(-1.0, 1.0)
        return AttributeConstraint(attr, op, (lo, lo + rng.uniform(0.0, 1.0)))
    if op is Op.PREFIX:
        return AttributeConstraint(attr, op, rng.choice(["", "a", "ab", "abc", "xy"]))
    if op is Op.EXISTS:
        return AttributeConstraint(attr, op)
    value = rng.choice(
        [
            rng.uniform(-1.0, 1.0),
            rng.randrange(-3, 4),
            rng.choice(["abc", "abd", "xyz", ""]),
            rng.choice([True, False]),
        ]
    )
    return AttributeConstraint(attr, op, value)


def random_event(rng: random.Random, event_id: int) -> Notification:
    attrs = {}
    for attr in ATTRS[1:]:
        roll = rng.random()
        if roll < 0.3:
            continue  # attribute absent
        if roll < 0.55:
            attrs[attr] = rng.uniform(-1.5, 1.5)
        elif roll < 0.7:
            attrs[attr] = rng.choice(["abc", "abde", "x", "xyzw", ""])
        elif roll < 0.8:
            attrs[attr] = rng.randrange(-3, 4)
        elif roll < 0.9:
            attrs[attr] = rng.choice([True, False])
        elif roll < 0.95:
            attrs[attr] = math.nan
        else:
            attrs[attr] = None  # present but None: matches like absent
    # NaN topics stab no range and satisfy no comparison
    topic = math.nan if rng.random() < 0.05 else rng.uniform(-0.1, 1.1)
    return Notification(
        event_id, publisher=0, seq=event_id, publish_time=0.0,
        topic=topic, attrs=attrs,
    )


def assert_tables_agree(counting, scan, rng, n_events, event_base):
    for i in range(n_events):
        ev = random_event(rng, event_base + i)
        for origin in [None] + NEIGHBORS[:2]:
            assert counting.match_neighbors(ev, exclude=origin) == \
                scan.match_neighbors(ev, exclude=origin)
            got = counting.match_clients(ev, origin)
            want = scan.match_clients(ev, origin)
            assert [e.key for e in got] == [e.key for e in want]
            c_nbrs, c_entries = counting.match(ev, origin)
            s_nbrs, s_entries = scan.match(ev, origin)
            assert c_nbrs == s_nbrs
            assert [e.key for e in c_entries] == [e.key for e in s_entries]


# ---------------------------------------------------------------------------
# randomized differential property test
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_differential_random_tables(seed):
    """Counting and scan agree across random table churn + events."""
    rng = random.Random(seed)
    counting = FilterTable(0, NEIGHBORS, engine="counting")
    scan = FilterTable(0, NEIGHBORS, engine="scan")
    broker_keys: list[tuple[int, str]] = []
    client_keys: list = []
    next_key = 0
    for batch in range(20):
        for _ in range(rng.randrange(1, 6)):
            action = rng.random()
            if action < 0.35 or not (broker_keys or client_keys):
                nbr = rng.choice(NEIGHBORS)
                key = f"k{next_key}"
                next_key += 1
                f = random_filter(rng)
                counting.add_broker_filter(nbr, key, f)
                scan.add_broker_filter(nbr, key, f)
                broker_keys.append((nbr, key))
            elif action < 0.55:
                key = ("c", next_key)
                next_key += 1
                label = rng.choice([None] + NEIGHBORS)
                f = random_filter(rng)
                counting.set_client_entry(ClientEntry(1000 + next_key, key, f, label=label))
                scan.set_client_entry(ClientEntry(1000 + next_key, key, f, label=label))
                client_keys.append(key)
            elif action < 0.65:
                # replace in place: a new filter (and label) under a live key
                f = random_filter(rng)
                if client_keys and (not broker_keys or rng.random() < 0.5):
                    key = rng.choice(client_keys)
                    label = rng.choice([None] + NEIGHBORS)
                    client = counting.get_entry_by_key(key).client
                    for table in (counting, scan):
                        table.set_client_entry(ClientEntry(client, key, f, label=label))
                else:
                    nbr, key = rng.choice(broker_keys)
                    counting.add_broker_filter(nbr, key, f)
                    scan.add_broker_filter(nbr, key, f)
            elif action < 0.85 and broker_keys:
                nbr, key = broker_keys.pop(rng.randrange(len(broker_keys)))
                assert counting.remove_broker_filter(nbr, key) \
                    == scan.remove_broker_filter(nbr, key)
            elif client_keys:
                key = client_keys.pop(rng.randrange(len(client_keys)))
                counting.remove_entry_by_key(key)
                scan.remove_entry_by_key(key)
        assert_tables_agree(counting, scan, rng, 25, batch * 1000)


@pytest.mark.parametrize("seed", range(6))
def test_differential_mhh_style_surgery(seed):
    """Counting and scan agree after MHH-style direct table edits.

    Replays the exact mutation pattern of §4.1 migration surgery:
    install-toward / remove-from on broker filters plus labelled
    client-entry replacement, interleaved with matching.
    """
    rng = random.Random(1000 + seed)
    counting = FilterTable(0, NEIGHBORS, engine="counting")
    scan = FilterTable(0, NEIGHBORS, engine="scan")
    f = RangeFilter(0.1, 0.8)
    key = ("sub", 7)
    for table in (counting, scan):
        table.set_client_entry(ClientEntry(7, key, f, live=True))
    for step in range(30):
        frm, to = rng.sample(NEIGHBORS, 2)
        # step 1-2 of §4.1: flip the filter toward the migration direction
        for table in (counting, scan):
            table.add_broker_filter(to, key, f)
        assert_tables_agree(counting, scan, rng, 8, 10_000 + step * 100)
        for table in (counting, scan):
            assert table.remove_broker_filter(to, key)
        # label flip: entry accepts only events arriving from `frm`
        label = rng.choice([None, frm, to])
        for table in (counting, scan):
            table.get_entry_by_key(key).label = label
        assert_tables_agree(counting, scan, rng, 8, 20_000 + step * 100)
        # transit-style replacement: remove + re-add under the same key
        label = rng.choice([None, frm])
        for table in (counting, scan):
            table.remove_entry_by_key(key)
            table.set_client_entry(ClientEntry(7, key, f, label=label))
        assert_tables_agree(counting, scan, rng, 8, 30_000 + step * 100)


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub"])
def test_differential_end_to_end_sim(protocol):
    """Whole-system determinism: both engines produce identical outcomes."""
    results = {}
    for mode in ("counting", "scan"):
        system = PubSubSystem(
            grid_k=3, protocol=protocol, seed=11, matching_engine=mode
        )
        sub = system.add_client(RangeFilter(0.0, 0.6), broker=0, mobile=True)
        pub = system.add_client(RangeFilter(2.0, 2.0), broker=8)
        sub.connect(0)
        pub.connect(8)
        system.run(until=2000.0)
        for i in range(6):
            pub.publish(topic=i / 10.0)
        system.run(until=4000.0)
        sub.disconnect()
        system.run(until=4500.0)
        for i in range(6):
            pub.publish(topic=i / 10.0)
        sub.connect(4)
        system.sim.run()
        stats = system.metrics.delivery.stats
        results[mode] = (
            stats.delivered,
            stats.duplicates,
            stats.order_violations,
            stats.missing,
            system.metrics.traffic.overhead_hops(),
        )
    assert results["counting"] == results["scan"]


# ---------------------------------------------------------------------------
# engine unit behaviour
# ---------------------------------------------------------------------------
def ev(topic, **attrs):
    return Notification(0, 0, 0, 0.0, topic, attrs or None)


def test_engine_empty_conjunction_always_matches():
    eng = CountingMatchingEngine()
    eng.add("all", ConjunctionFilter([]))
    assert eng.match(ev(0.5)) == ["all"]
    eng.discard("all")
    assert eng.match(ev(0.5)) == []


def test_engine_replace_and_discard():
    eng = CountingMatchingEngine()
    eng.add("s", RangeFilter(0.0, 0.4))
    assert eng.match(ev(0.2)) == ["s"]
    eng.add("s", RangeFilter(0.6, 0.9))  # replace
    assert eng.match(ev(0.2)) == []
    assert eng.match(ev(0.7)) == ["s"]
    assert "s" in eng and len(eng) == 1
    eng.discard("s")
    eng.discard("s")  # idempotent
    assert eng.match(ev(0.7)) == []


def test_engine_counting_requires_all_constraints():
    eng = CountingMatchingEngine()
    eng.add(
        "s",
        ConjunctionFilter(
            [
                AttributeConstraint("kind", Op.EQ, "alert"),
                AttributeConstraint("size", Op.GE, 10),
                AttributeConstraint("topic", Op.RANGE, (0.0, 0.5)),
            ]
        ),
    )
    assert eng.match(ev(0.3, kind="alert", size=12)) == ["s"]
    assert eng.match(ev(0.3, kind="alert", size=9)) == []
    assert eng.match(ev(0.3, size=12)) == []
    assert eng.match(ev(0.9, kind="alert", size=12)) == []


def test_engine_duplicate_constraints_in_one_filter():
    c = AttributeConstraint("kind", Op.EQ, "x")
    eng = CountingMatchingEngine()
    eng.add("s", ConjunctionFilter([c, c]))
    assert eng.match(ev(0.0, kind="x")) == ["s"]


def test_engine_groups_boolean_semantics():
    eng = CountingMatchingEngine()
    eng.add_group_member("g1", "a", RangeFilter(0.0, 0.3))
    eng.add_group_member("g1", "b", RangeFilter(0.5, 0.8))
    eng.add_group_member(
        "g2", "c", ConjunctionFilter([AttributeConstraint("kind", Op.EQ, "x")])
    )
    slots, groups = eng.match_with_groups(ev(0.6))
    assert slots == [] and groups == {"g1"}
    slots, groups = eng.match_with_groups(ev(0.4, kind="x"))
    assert groups == {"g2"}
    eng.discard_group_member("g1", "b")
    assert eng.match_with_groups(ev(0.6))[1] == set()
    assert eng.group_size("g1") == 1 and eng.group_size("g2") == 1


def test_engine_shared_constraints_across_slots():
    f = ConjunctionFilter([AttributeConstraint("kind", Op.EQ, "x")])
    eng = CountingMatchingEngine()
    eng.add("s1", f)
    eng.add("s2", ConjunctionFilter([AttributeConstraint("kind", Op.EQ, "x")]))
    assert sorted(eng.match(ev(0.0, kind="x"))) == ["s1", "s2"]
    eng.discard("s1")
    assert eng.match(ev(0.0, kind="x")) == ["s2"]
