"""``FilterTable.match_batch`` answers exactly like a loop of ``match``.

``match_batch`` is a plain loop over :meth:`FilterTable.match` kept as the
batch-shaped entry point that ``perfbench/tracing.py`` wraps by name. These
tests pin that it stays answer-identical per item (neighbour order, entry
order, MHH label handling) for every engine x covering_index combination,
over adversarial filter sets (groups, labels, NaN topics, string/bool
attribute values) and after filter churn.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Op,
    RangeFilter,
)

NEIGHBORS = (1, 2, 3)


# ---------------------------------------------------------------------------
# match_batch == [match(e, f) for ...] on every engine
# ---------------------------------------------------------------------------
_attrs = st.sampled_from(("topic", "x", "kind"))
_bounds = st.tuples(
    st.floats(-1.0, 2.0, allow_nan=False), st.floats(-1.0, 2.0, allow_nan=False)
).map(sorted)


@st.composite
def _constraints(draw):
    attr = draw(_attrs)
    op = draw(st.sampled_from(
        (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.RANGE, Op.EXISTS,
         Op.PREFIX)
    ))
    if op is Op.RANGE:
        value = tuple(draw(_bounds))
    elif op is Op.PREFIX:
        value = draw(st.sampled_from(("", "a", "ab", "b")))
    elif op in (Op.EQ, Op.NE):
        value = draw(st.one_of(
            st.floats(-1.0, 2.0, allow_nan=False), st.integers(-2, 2),
            st.booleans(), st.sampled_from(("a", "ab", "b")),
        ))
    else:
        value = draw(st.floats(-1.0, 2.0, allow_nan=False))
    return AttributeConstraint(attr, op, value)


@st.composite
def _filters(draw):
    if draw(st.booleans()):
        lo, hi = draw(_bounds)
        return RangeFilter(lo, hi, attr=draw(st.sampled_from(("topic", "x"))))
    return ConjunctionFilter(draw(st.lists(_constraints(), max_size=3)))


_events = st.builds(
    Notification,
    event_id=st.integers(0, 10_000),
    publisher=st.integers(0, 3),
    seq=st.integers(0, 5),
    publish_time=st.just(0.0),
    topic=st.one_of(
        st.floats(-1.0, 2.0, allow_nan=False), st.just(float("nan"))
    ),
    attrs=st.one_of(
        st.none(),
        st.dictionaries(
            st.sampled_from(("x", "kind")),
            st.one_of(
                st.floats(-1.0, 2.0, allow_nan=False), st.just(float("nan")),
                st.integers(-2, 2), st.booleans(),
                st.sampled_from(("a", "ab", "b")), st.none(),
            ),
            max_size=2,
        ),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    client_filters=st.lists(
        st.tuples(_filters(), st.sampled_from((None, 1, 2, 9))), max_size=10
    ),
    broker_filters=st.lists(
        st.tuples(st.sampled_from(NEIGHBORS), _filters()), max_size=8
    ),
    items=st.lists(
        st.tuples(_events, st.sampled_from((None, 1, 2))), max_size=12
    ),
)
def test_match_batch_equals_match_loop(client_filters, broker_filters, items):
    for engine in ("counting", "scan"):
        for covering_index in (False, True):
            table = FilterTable(
                0, NEIGHBORS, engine=engine, covering_index=covering_index
            )
            for nbr, f in broker_filters:
                table.add_broker_filter(nbr, ("k", nbr, id(f)), f)
            for i, (f, label) in enumerate(client_filters):
                table.set_client_entry(
                    ClientEntry(i, ("c", i), f, label=label)
                )
            expected = [table.match(ev, frm) for ev, frm in items]
            assert table.match_batch(items) == expected


def test_match_batch_after_churn_matches_loop():
    """Discard/re-add churn and broker-filter removal keep the answers equal."""
    table = FilterTable(0, NEIGHBORS, engine="counting")
    for i in range(40):
        lo = (i % 10) / 10.0
        table.set_client_entry(
            ClientEntry(i, ("c", i), RangeFilter(lo, lo + 0.15))
        )
    for nbr in NEIGHBORS:
        table.add_broker_filter(nbr, ("n", nbr), RangeFilter(0.2, 0.4 + nbr / 10))
    events = [
        Notification(i, 0, i, 0.0, (i % 23) / 22.0) for i in range(23)
    ]
    items = [(ev, None if ev.event_id % 3 else 1) for ev in events]
    baseline = [table.match(ev, frm) for ev, frm in items]
    assert table.match_batch(items) == baseline
    for i in range(0, 40, 3):  # churn: discard a third, re-add shifted
        table.remove_entry_by_key(("c", i))
    for i in range(0, 40, 3):
        lo = ((i + 5) % 10) / 10.0
        table.set_client_entry(
            ClientEntry(i, ("c", i), RangeFilter(lo, lo + 0.05))
        )
    table.remove_broker_filter(1, ("n", 1))
    assert table.match_batch(items) == [table.match(ev, frm) for ev, frm in items]


