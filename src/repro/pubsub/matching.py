"""Broker-wide counting-based matching engine.

The legacy hot path resolves an event by interrogating every neighbour's
filter set and then every client entry independently
(:meth:`~repro.pubsub.filter_table.FilterTable.match_neighbors` /
``match_clients``); per-neighbour range filters are indexed, but general
filters and client entries are linear scans, so per-event cost grows with
the number of registered filters. This module implements the SIENA-style
**counting algorithm** instead: one broker-wide index over *all* registered
filters resolves an event in a single pass.

Model
-----
Each filter is registered under a **slot** — an opaque hashable token chosen
by the caller (the filter table uses ``("n", neighbour, key)`` for broker
filters and ``("c", key)`` for client entries). The engine decomposes every
filter into its attribute constraints, deduplicates identical constraints
across filters (each unique constraint gets one integer *cid*), and indexes
them by ``(attribute, operator)``:

* numeric closed ranges — a per-attribute
  :class:`~repro.pubsub.interval_index.IntervalIndex`, queried with
  :meth:`~repro.pubsub.interval_index.IntervalIndex.stab_all`
  (all satisfied intervals in O(log n + k));
* ``EQ`` — per-attribute hash buckets;
* ``EXISTS`` — per-attribute presence lists;
* ``PREFIX`` — per-attribute buckets probed with every prefix of the event
  value;
* ``LT``/``LE``/``GT``/``GE`` with numeric bounds — per-operator sorted
  arrays, bisected per event (satisfied constraints form a contiguous run);
* everything else (``NE``, non-numeric bounds, exotic values) — a
  per-attribute fallback table evaluated exactly with
  :meth:`~repro.pubsub.filters.AttributeConstraint.matches_value`.

Resolving an event probes each indexed attribute once, collects the cids of
satisfied constraints, and counts them per filter; a filter matches iff
every one of its constraints was counted. Filters with no constraints match
everything; filter types the compiler does not understand fall back to a
``Filter.matches`` scan, so the engine is exact for *any*
:class:`~repro.pubsub.filters.Filter`.

Groups
------
Reverse path forwarding does not need to know *which* of a neighbour's
filters matched — only whether at least one did. Enumerating every matched
subscription of a heavily-subscribed neighbour (the counting output is
proportional to the number of matches) would waste the work the boolean
answer never needed, so the engine also supports **group members**
(:meth:`CountingMatchingEngine.add_group_member`): range members are held
in per-group interval indexes answered with an O(log n) early-exit stab,
and only non-range members go through the counting pass.
:meth:`CountingMatchingEngine.match_with_groups` therefore resolves, in one
call, the exact slot set (client entries) *and* the matched group set
(neighbours) — the broker hot path's complete forwarding decision.

Mutations are **incremental**: registering or dropping a filter touches only
the buckets its constraints live in (mobility protocols mutate routing
tables on every handoff, so a global rebuild per mutation would dominate
simulation time). The order-sensitive structures are maintained in place —
the per-attribute :class:`~repro.pubsub.interval_index.IntervalIndex` via
its incremental bisect-insert/prefix-repair path, the inequality arrays via
eager bisect insert/delete — so a handoff's table edit never triggers a
table-sized re-sort.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
from typing import Any, Hashable, Optional

from repro.pubsub.events import Notification
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Filter,
    Op,
    RangeFilter,
)
from repro.pubsub.interval_index import IntervalIndex

__all__ = ["CountingMatchingEngine"]


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class _SortedValues:
    """Dynamic (value, cid) pairs for one inequality operator.

    Maintained eagerly with bisect insert/delete — O(log n) comparisons
    plus one C-level memmove per mutation (mobility churn mutates these on
    every handoff; the former lazy full re-sort per mutated-then-queried
    cycle was O(n log n)). A bisect over ``values`` yields the contiguous
    run of satisfied cids.
    """

    __slots__ = ("_items", "_values", "_cids")

    def __init__(self) -> None:
        self._items: dict[int, float] = {}
        self._values: list[float] = []
        self._cids: list[int] = []

    def add(self, cid: int, value: float) -> None:
        self._items[cid] = value
        i = bisect_right(self._values, value)
        self._values.insert(i, value)
        self._cids.insert(i, cid)

    def discard(self, cid: int) -> None:
        value = self._items.pop(cid, None)
        if value is None:
            return
        cids = self._cids
        i = bisect_left(self._values, value) if value == value else 0
        n = len(cids)
        while i < n and cids[i] != cid:
            i += 1
        if i == n:  # NaN-poisoned ordering: positional fallback
            i = cids.index(cid)
        self._values.pop(i)
        cids.pop(i)

    def pairs(self) -> tuple[list[float], list[int]]:
        return self._values, self._cids

    def __len__(self) -> int:
        return len(self._items)


class _AttrIndex:
    """All indexed constraints on one event attribute."""

    __slots__ = (
        "size", "eq", "exists", "prefix", "max_prefix", "n_loose", "n_strict",
        "ranges_loose", "ranges_strict", "lt", "le", "gt", "ge", "checks",
    )

    def __init__(self) -> None:
        self.size = 0
        self.eq: dict[Any, list[int]] = {}
        self.exists: list[int] = []
        self.prefix: dict[str, list[int]] = {}
        self.max_prefix = 0
        # "loose" intervals compare any int/float (bool included) the way
        # AttributeConstraint.RANGE and topic RangeFilters do; "strict"
        # intervals replicate non-topic RangeFilter semantics, which reject
        # non-number values (incl. bool) before comparing.
        self.ranges_loose = IntervalIndex()
        self.ranges_strict = IntervalIndex()
        self.n_loose = 0
        self.n_strict = 0
        self.lt = _SortedValues()
        self.le = _SortedValues()
        self.gt = _SortedValues()
        self.ge = _SortedValues()
        self.checks: dict[int, AttributeConstraint] = {}

    # ------------------------------------------------------------------
    def install(self, cid: int, kind: str, payload: Any) -> None:
        self.size += 1
        if kind == "eq":
            self.eq.setdefault(payload, []).append(cid)
        elif kind == "exists":
            self.exists.append(cid)
        elif kind == "prefix":
            self.prefix.setdefault(payload, []).append(cid)
            self.max_prefix = max(self.max_prefix, len(payload))
        elif kind == "rng_loose":
            self.ranges_loose.add(cid, payload[0], payload[1])
            self.n_loose += 1
        elif kind == "rng_strict":
            self.ranges_strict.add(cid, payload[0], payload[1])
            self.n_strict += 1
        elif kind in ("lt", "le", "gt", "ge"):
            getattr(self, kind).add(cid, payload)
        else:  # "check"
            self.checks[cid] = payload

    def uninstall(self, cid: int, kind: str, payload: Any) -> None:
        self.size -= 1
        if kind == "eq":
            bucket = self.eq[payload]
            bucket.remove(cid)
            if not bucket:
                del self.eq[payload]
        elif kind == "exists":
            self.exists.remove(cid)
        elif kind == "prefix":
            bucket = self.prefix[payload]
            bucket.remove(cid)
            if not bucket:
                del self.prefix[payload]
                self.max_prefix = max(map(len, self.prefix), default=0)
        elif kind == "rng_loose":
            self.ranges_loose.discard(cid)
            self.n_loose -= 1
        elif kind == "rng_strict":
            self.ranges_strict.discard(cid)
            self.n_strict -= 1
        elif kind in ("lt", "le", "gt", "ge"):
            getattr(self, kind).discard(cid)
        else:  # "check"
            del self.checks[cid]

    # ------------------------------------------------------------------
    def probe(self, x: Any, out: list[int]) -> None:
        """Append the cids of all constraints satisfied by value ``x``."""
        if self.exists:
            out.extend(self.exists)
        nanlike = isinstance(x, float) and x != x
        if self.eq and not nanlike:
            try:
                bucket = self.eq.get(x)
            except TypeError:  # unhashable event value
                bucket = None
            if bucket:
                out.extend(bucket)
        if self.prefix and isinstance(x, str):
            get = self.prefix.get
            for i in range(min(len(x), self.max_prefix) + 1):
                bucket = get(x[:i])
                if bucket:
                    out.extend(bucket)
        if not nanlike and isinstance(x, (int, float)):
            if self.n_loose:
                out.extend(self.ranges_loose.stab_all(x))
            if self.n_strict and not isinstance(x, bool):
                out.extend(self.ranges_strict.stab_all(x))
            if self.lt._items:
                values, cids = self.lt.pairs()
                out.extend(cids[bisect_right(values, x):])
            if self.le._items:
                values, cids = self.le.pairs()
                out.extend(cids[bisect_left(values, x):])
            if self.gt._items:
                values, cids = self.gt.pairs()
                out.extend(cids[:bisect_left(values, x)])
            if self.ge._items:
                values, cids = self.ge.pairs()
                out.extend(cids[:bisect_right(values, x)])
        if self.checks:
            for cid, constraint in self.checks.items():
                if constraint.matches_value(x):
                    out.append(cid)


# One compiled constraint: (kind, attr, payload). The triple doubles as the
# cross-filter deduplication key (payload is hashable except for "check"
# plans, which fall back to AttributeConstraint.key()).
_Plan = tuple


def _compile(f: Filter) -> Optional[list[_Plan]]:
    """Decompose ``f`` into indexable constraint plans.

    Returns None for filter types the compiler does not understand (they
    are matched by scanning), and [] for filters that match everything.
    """
    if isinstance(f, RangeFilter):
        kind = "rng_loose" if f.attr == "topic" else "rng_strict"
        return [(kind, f.attr, (f.lo, f.hi))]
    if isinstance(f, ConjunctionFilter):
        plans: list[_Plan] = []
        for c in f.constraints:
            op, v = c.op, c.value
            if op is Op.EXISTS:
                plans.append(("exists", c.attr, None))
            elif op is Op.EQ and _hashable(v) and not _nanlike(v):
                plans.append(("eq", c.attr, v))
            elif op is Op.PREFIX:
                plans.append(("prefix", c.attr, v))
            elif op is Op.RANGE and _is_number(v[0]) and _is_number(v[1]):
                plans.append(("rng_loose", c.attr, (float(v[0]), float(v[1]))))
            elif op in (Op.LT, Op.LE, Op.GT, Op.GE) and _is_number(v):
                plans.append((op.name.lower(), c.attr, float(v)))
            else:
                # NE, non-numeric bounds, NaN/unhashable values: exact
                # per-event check
                plans.append(("check", c.attr, c))
        return plans
    return None


def _hashable(v: Any) -> bool:
    try:
        hash(v)
    except TypeError:
        return False
    return True


def _nanlike(v: Any) -> bool:
    return isinstance(v, float) and v != v


#: sentinel marking engine-internal slots that represent group members
_GROUP = object()


class _Group:
    """One group's members: boolean range indexes + counted general members.

    ``member_kind`` remembers where each member key lives so removal is
    O(1): ``("loose", attr)`` / ``("strict", attr)`` for range members,
    ``("slot", internal_slot)`` for members delegated to the counting pass.
    """

    __slots__ = ("ranges_loose", "ranges_strict", "member_kind")

    def __init__(self) -> None:
        self.ranges_loose: dict[str, IntervalIndex] = {}
        self.ranges_strict: dict[str, IntervalIndex] = {}
        self.member_kind: dict[Hashable, tuple] = {}

    def stab(self, event: Notification) -> bool:
        """True if any range member matches ``event`` (early exit)."""
        for attr, idx in self.ranges_loose.items():
            x = event.get(attr)
            if (
                isinstance(x, (int, float))
                and x == x
                and idx.stab(x)
            ):
                return True
        for attr, idx in self.ranges_strict.items():
            x = event.get(attr)
            if _is_number(x) and x == x and idx.stab(x):
                return True
        return False


class CountingMatchingEngine:
    """Single-pass counting matcher over all of one broker's filters.

    Usage::

        engine = CountingMatchingEngine()
        engine.add(("n", 3, "key-a"), RangeFilter(0.2, 0.4))
        engine.add(("c", "key-b"), ConjunctionFilter([...]))
        matched_slots = engine.match(event)

    Slots are opaque; the caller maps them back to neighbours / client
    entries. ``add`` with an existing slot replaces its filter. All
    mutations are incremental — cost proportional to the constraints of the
    one filter touched, never to the table size.
    """

    __slots__ = (
        "_next_cid",
        "_slot_cids", "_always", "_scan", "_needed",
        "_cid_single", "_cid_multi", "_cid_plan", "_cid_key", "_key_cid",
        "_attrs", "_groups",
    )

    def __init__(self) -> None:
        self._next_cid = count()
        # slot bookkeeping: exactly one of the three holds any given slot
        self._slot_cids: dict[Hashable, list[int]] = {}
        self._always: dict[Hashable, bool] = {}
        self._scan: dict[Hashable, Filter] = {}
        self._needed: dict[Hashable, int] = {}
        # constraint bookkeeping. Slots with exactly one constraint (the
        # common case: every RangeFilter) match as soon as their cid is
        # satisfied and skip counting entirely; only multi-constraint slots
        # pay for the per-event count dictionary.
        self._cid_single: dict[int, dict[Hashable, bool]] = {}
        self._cid_multi: dict[int, dict[Hashable, bool]] = {}
        self._cid_plan: dict[int, _Plan] = {}
        self._cid_key: dict[int, Hashable] = {}
        self._key_cid: dict[Hashable, int] = {}
        self._attrs: dict[str, _AttrIndex] = {}
        self._groups: dict[Hashable, _Group] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, slot: Hashable, f: Filter) -> None:
        """Register (or replace) the filter for ``slot``."""
        self.discard(slot)
        plans = _compile(f)
        if plans is None:
            self._scan[slot] = f
            return
        # deduplicate within the filter: a conjunction of identical
        # constraints is one constraint, and double-counting a shared cid
        # would make the filter's count target unreachable
        uniq: dict[Hashable, _Plan] = {}
        unkeyed: list[_Plan] = []
        for plan in plans:
            kind, attr, payload = plan
            if kind == "check":
                try:
                    key = ("check", attr, payload.key())
                    hash(key)
                except TypeError:
                    if not any(payload == other[2] for other in unkeyed):
                        unkeyed.append(plan)
                    continue
            else:
                key = plan
            uniq[key] = plan
        if not uniq and not unkeyed:
            self._always[slot] = True
            return
        cids: list[int] = []
        for key, plan in uniq.items():
            cid = self._key_cid.get(key)
            if cid is None:
                cid = self._install(plan)
                self._key_cid[key] = cid
                self._cid_key[cid] = key
            cids.append(cid)
        for plan in unkeyed:
            cids.append(self._install(plan))
        holders = self._cid_single if len(cids) == 1 else self._cid_multi
        for cid in cids:
            holders[cid][slot] = True
        self._slot_cids[slot] = cids
        self._needed[slot] = len(cids)

    def discard(self, slot: Hashable) -> None:
        """Unregister ``slot`` if present."""
        if self._scan.pop(slot, None) is not None:
            return
        if self._always.pop(slot, None) is not None:
            return
        cids = self._slot_cids.pop(slot, None)
        if cids is None:
            return
        del self._needed[slot]
        holder_map = self._cid_single if len(cids) == 1 else self._cid_multi
        for cid in cids:
            del holder_map[cid][slot]
            if not self._cid_single[cid] and not self._cid_multi[cid]:
                del self._cid_single[cid]
                del self._cid_multi[cid]
                kind, attr, payload = self._cid_plan.pop(cid)
                key = self._cid_key.pop(cid, None)
                if key is not None:
                    del self._key_cid[key]
                ai = self._attrs[attr]
                ai.uninstall(cid, kind, payload)
                if ai.size == 0:
                    del self._attrs[attr]

    def _install(self, plan: _Plan) -> int:
        kind, attr, payload = plan
        cid = next(self._next_cid)
        ai = self._attrs.get(attr)
        if ai is None:
            ai = self._attrs[attr] = _AttrIndex()
        ai.install(cid, kind, payload)
        self._cid_plan[cid] = plan
        self._cid_single[cid] = {}
        self._cid_multi[cid] = {}
        return cid

    # ------------------------------------------------------------------
    # group members (boolean "any member matches" semantics)
    # ------------------------------------------------------------------
    def add_group_member(self, group: Hashable, key: Hashable, f: Filter) -> None:
        """Register (or replace) member ``key`` of ``group``.

        A group matches an event iff at least one of its members does;
        :meth:`match_with_groups` reports matched groups without enumerating
        members. Range members get a per-group boolean interval index; any
        other filter is delegated to the counting pass.
        """
        g = self._groups.get(group)
        if g is None:
            g = self._groups[group] = _Group()
        if key in g.member_kind:
            self.discard_group_member(group, key)
            g = self._groups.get(group)
            if g is None:
                g = self._groups[group] = _Group()
        if isinstance(f, RangeFilter):
            if f.attr == "topic":
                kind, table = "loose", g.ranges_loose
            else:
                kind, table = "strict", g.ranges_strict
            idx = table.get(f.attr)
            if idx is None:
                idx = table[f.attr] = IntervalIndex()
            idx.add(key, f.lo, f.hi)
            g.member_kind[key] = (kind, f.attr)
        else:
            slot = (_GROUP, group, key)
            self.add(slot, f)
            g.member_kind[key] = ("slot", slot)

    def discard_group_member(self, group: Hashable, key: Hashable) -> None:
        """Unregister member ``key`` of ``group`` if present."""
        g = self._groups.get(group)
        if g is None:
            return
        kind = g.member_kind.pop(key, None)
        if kind is None:
            return
        if kind[0] == "slot":
            self.discard(kind[1])
        else:
            table = g.ranges_loose if kind[0] == "loose" else g.ranges_strict
            idx = table[kind[1]]
            idx.discard(key)
            if not len(idx):
                del table[kind[1]]
        if not g.member_kind:
            del self._groups[group]

    def group_size(self, group: Hashable) -> int:
        g = self._groups.get(group)
        return len(g.member_kind) if g is not None else 0

    def __len__(self) -> int:
        return len(self._slot_cids) + len(self._always) + len(self._scan)

    def __contains__(self, slot: Hashable) -> bool:
        return slot in self._slot_cids or slot in self._always or slot in self._scan

    # ------------------------------------------------------------------
    # matching (the hot path)
    # ------------------------------------------------------------------
    def match(self, event: Notification) -> list[Hashable]:
        """Slots of all slot-registered filters matching ``event``.

        Group members never appear here; use :meth:`match_with_groups` when
        groups are registered.
        """
        return self.match_with_groups(event)[0]

    def match_with_groups(
        self, event: Notification
    ) -> tuple[list[Hashable], set]:
        """One-pass resolution: (matched slots, matched groups).

        A group is matched iff at least one of its members matches; which
        member matched is not reported (boolean early-exit for range
        members — the reverse-path-forwarding decision does not need the
        enumeration the counting pass would produce).
        """
        satisfied: list[int] = []
        for attr, ai in self._attrs.items():
            x = event.get(attr)
            if x is None:
                # no operator (EXISTS included) matches an absent attribute
                continue
            ai.probe(x, satisfied)
        raw: list[Hashable] = []
        counts: dict[Hashable, int] = {}
        counts_get = counts.get
        single, multi = self._cid_single, self._cid_multi
        for cid in satisfied:
            s = single[cid]
            if s:
                raw.extend(s)
            m = multi[cid]
            if m:
                for slot in m:
                    counts[slot] = counts_get(slot, 0) + 1
        if counts:
            needed = self._needed
            raw.extend(slot for slot, n in counts.items() if n == needed[slot])
        raw.extend(self._always)
        for slot, f in self._scan.items():
            if f.matches(event):
                raw.append(slot)
        groups: set = set()
        if not self._groups:
            return raw, groups
        out: list[Hashable] = []
        for slot in raw:
            # group-member slots are tagged with the _GROUP sentinel
            if type(slot) is tuple and slot and slot[0] is _GROUP:
                groups.add(slot[1])
            else:
                out.append(slot)
        for group, g in self._groups.items():
            if group not in groups and g.stab(event):
                groups.add(group)
        return out, groups
