"""Per-broker filter table.

Section 3: "Each event broker maintains a filter table to record the
subscriptions of its neighbors. The neighbors of a broker include both the
neighboring brokers and the clients that directly connect to the broker."

The table therefore has two parts:

* **broker filters** — per neighbouring broker, the set of subscriptions that
  neighbour advertised to us (keyed by subscription key). An event is
  forwarded to a neighbour iff any of its advertised filters matches
  (reverse path forwarding).
* **client entries** — local (possibly offline) clients. MHH extends these
  with a *label*: a labelled entry accepts events for the client only when
  they arrive from the labelled neighbour (§4.1 step 2) — the mechanism that
  captures in-transit events into temporary queues during a handoff.

Matching is delegated to a broker-wide
:class:`~repro.pubsub.matching.CountingMatchingEngine` (the default): every
broker filter and client entry is registered with the engine as it is
installed, and :meth:`FilterTable.match` resolves an event against *all* of
them in a single counting pass, returning matched neighbours and matched
client entries together. The pre-engine behaviour — per-neighbour
:class:`~repro.pubsub.interval_index.IntervalIndex` stabbing plus linear
scans over general filters and client entries — is kept behind
``engine="scan"`` for differential testing; both paths must agree
event-for-event (``tests/test_matching_engine.py`` asserts this, including
the order of matched client entries).

The table also tracks what this broker has **advertised** to each neighbour
(the mirror of the neighbour's broker-filter set for us). Advertisement
bookkeeping drives covering-based propagation pruning and must be kept
consistent by MHH's direct table edits; the system-wide mirror invariant is
asserted in tests.

Control-plane cost is governed by three indexes (all toggleable back to
their scan-based forms for differential testing):

* every per-neighbour range set and the engine's per-attribute indexes sit
  on the *incremental* :class:`~repro.pubsub.interval_index.IntervalIndex`,
  so a handoff's table edit costs O(log n) instead of a full re-sort;
* with ``covering_index=True`` (default) each advertised set carries a
  :class:`~repro.pubsub.covering.CoveringIndex` making ``advertised_covers``
  O(log n), and the table maintains one broker-wide *candidates*
  CoveringIndex over every client entry and neighbour filter, so
  :meth:`FilterTable.covered_candidates` enumerates exactly the entries a
  withdrawn filter could have been suppressing — in the same order the
  legacy full-table scan would visit them, so both paths emit identical
  re-advertisements;
* a client→entries map makes :meth:`entries_for_client` (every
  connect/handoff, all four protocols) O(entries-of-that-client) instead of
  a scan over every entry on the broker.
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter, itemgetter
from typing import Hashable, Iterable, Optional

from repro.errors import ProtocolError
from repro.pubsub.covering import CoveringIndex
from repro.pubsub.events import Notification
from repro.pubsub.filters import Filter
from repro.pubsub.interval_index import IntervalIndex
from repro.pubsub.matching import CountingMatchingEngine
from repro.util.ids import QueueId

__all__ = ["ClientEntry", "FilterTable"]

#: valid values for FilterTable(engine=...)
ENGINE_MODES = ("counting", "scan")


class ClientEntry:
    """Interest of one local (possibly offline) client.

    Attributes
    ----------
    client: client id.
    key: the routing key under which the filter propagates.
    filter: the client's subscription filter.
    label: None, or a neighbouring broker id — accept events for this client
        only from that neighbour (MHH §4.1).
    live: True while events should go straight to the client's wireless
        downlink; False while they should be appended to ``sink``.
    sink: queue id (broker-local) absorbing events while not live.
    """

    __slots__ = ("client", "key", "filter", "label", "live", "sink", "seq")

    def __init__(
        self,
        client: int,
        key: Hashable,
        filter: Filter,
        label: Optional[int] = None,
        live: bool = False,
        sink: Optional[QueueId] = None,
    ) -> None:
        self.client = client
        self.key = key
        self.filter = filter
        self.label = label
        self.live = live
        self.sink = sink
        # installation order stamped by FilterTable.set_client_entry (the
        # table's _client_seq for this key, cached on the entry so hot-path
        # sorts use a C-level attrgetter instead of a dict-lookup lambda)
        self.seq = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self.live else f"sink={self.sink}"
        lab = f" label={self.label}" if self.label is not None else ""
        return f"<ClientEntry c{self.client} {state}{lab}>"


#: hot-path sort key: installation order cached on the entry
_ENTRY_SEQ = attrgetter("seq")


class _PeerFilters:
    """Filters advertised by one neighbour: range index + general list.

    ``filters`` keeps every installed filter object so lookups return the
    original (no per-:meth:`get` reconstruction), and ``_seq`` stamps each
    key with ``(subtable, insertion-seq)`` — the position it occupies in
    :meth:`keys` order — so indexed candidate enumeration can reproduce the
    legacy scan order exactly. With ``covering_index=True`` the set also
    carries a :class:`CoveringIndex` answering :meth:`covers` in O(log n)
    (used for advertised sets, where covering-pruned propagation queries it
    on every subscribe/withdraw).
    """

    __slots__ = (
        "ranges", "general", "filters", "_seq", "_next_seq", "cov",
        "_want_cov",
    )

    def __init__(self, covering_index: bool = False) -> None:
        self.ranges = IntervalIndex()
        self.general: dict[Hashable, Filter] = {}
        self.filters: dict[Hashable, Filter] = {}
        self._seq: dict[Hashable, tuple[int, int]] = {}
        self._next_seq = count()
        # the CoveringIndex is built lazily on the first covers() call and
        # maintained incrementally from then on — non-covering runs (MHH
        # and the default reproduction configs) never query covering, so
        # they never pay for index maintenance
        self._want_cov = covering_index
        self.cov: Optional[CoveringIndex] = None

    def add(self, key: Hashable, f: Filter) -> None:
        rng = f.as_range()
        if rng is not None and rng[0] == "topic":
            sub = 0
            self.general.pop(key, None)  # replace across subtables
            self.ranges.add(key, rng[1], rng[2])
        else:
            sub = 1
            self.ranges.discard(key)
            self.general[key] = f
        self.filters[key] = f
        old = self._seq.get(key)
        if old is None or old[0] != sub:
            self._seq[key] = (sub, next(self._next_seq))
        if self.cov is not None:
            self.cov.add(key, f)

    def remove(self, key: Hashable) -> bool:
        if key in self.ranges:
            self.ranges.remove(key)
        elif self.general.pop(key, None) is None:
            return False
        del self.filters[key]
        del self._seq[key]
        if self.cov is not None:
            self.cov.discard(key)
        return True

    def __contains__(self, key: Hashable) -> bool:
        return key in self.filters

    def __len__(self) -> int:
        return len(self.filters)

    def matches(self, event: Notification) -> bool:
        if self.ranges.stab(event.topic):
            return True
        return any(f.matches(event) for f in self.general.values())

    def covers(self, f: Filter) -> bool:
        """Is ``f`` covered by some filter in this set? (conservative)"""
        cov = self.cov
        if cov is None and self._want_cov:
            cov = self.cov = CoveringIndex()
            for key, installed in self.filters.items():
                cov.add(key, installed)
        if cov is not None:
            return cov.covers(f)
        rng = f.as_range()
        if rng is not None and rng[0] == "topic":
            if self.ranges.contains_interval(rng[1], rng[2]):
                return True
        return any(g.covers(f) for g in self.general.values())

    def keys(self) -> list[Hashable]:
        return [k for k, _ in self.ranges.items()] + list(self.general)

    def iter_filters(self):
        """(key, filter) pairs in :meth:`keys` order, lazily."""
        filters = self.filters
        for key, _iv in self.ranges.items():
            yield key, filters[key]
        yield from self.general.items()

    def order_key(self, key: Hashable) -> tuple[int, int]:
        """(subtable, seq) position of ``key`` in :meth:`keys` order."""
        return self._seq[key]

    def get(self, key: Hashable) -> Optional[Filter]:
        return self.filters.get(key)


class FilterTable:
    """The routing state of one broker.

    ``engine`` selects the matching implementation: ``"counting"`` (default)
    resolves events through one broker-wide
    :class:`~repro.pubsub.matching.CountingMatchingEngine`; ``"scan"`` keeps
    the legacy per-neighbour stab + linear-scan path for differential
    testing. Bookkeeping (keys, advertisement mirror, covering) is identical
    in both modes.
    """

    def __init__(
        self,
        broker_id: int,
        neighbors: Iterable[int],
        engine: str = "counting",
        covering_index: bool = True,
    ) -> None:
        if engine not in ENGINE_MODES:
            raise ProtocolError(
                f"unknown matching engine {engine!r}; expected one of "
                f"{ENGINE_MODES}"
            )
        self.broker_id = broker_id
        self.engine_mode = engine
        self.covering_index = covering_index
        self.neighbors = sorted(neighbors)
        # subs received FROM each neighbour ("that side is interested")
        self._from_nbr: dict[int, _PeerFilters] = {
            n: _PeerFilters() for n in self.neighbors
        }
        # subs we advertised TO each neighbour (mirror of their _from_nbr[us]);
        # only these sets answer covering queries, so only they carry the
        # per-neighbour CoveringIndex
        self._advertised: dict[int, _PeerFilters] = {
            n: _PeerFilters(covering_index=covering_index)
            for n in self.neighbors
        }
        # client entries keyed by subscription key; a client normally has at
        # most one entry per broker, but the sub-unsub baseline can briefly
        # root two subscription epochs of one client at the same broker
        self.clients: dict[Hashable, ClientEntry] = {}
        # per-client view of `clients` (same entry objects) for O(entries)
        # connect/handoff lookups
        self._by_client: dict[int, dict[Hashable, ClientEntry]] = {}
        # broker-wide counting engine, kept in sync by every mutator below
        # (None in scan mode). Client-entry insertion order is tracked so
        # engine results replay the scan path's dict-order exactly.
        self._engine = CountingMatchingEngine() if engine == "counting" else None
        self._client_seq: dict[Hashable, int] = {}
        self._next_seq = count()
        # broker-wide covering index over every withdrawal *candidate*
        # (client entries + every neighbour's filters): drives
        # covered_candidates(). Built lazily on the first covering
        # withdrawal and maintained incrementally from then on, so
        # non-covering runs never pay for it. Always None when the
        # covering_index toggle is off.
        self._candidates: Optional[CoveringIndex] = None

    # ------------------------------------------------------------------
    # broker-filter side
    # ------------------------------------------------------------------
    def add_broker_filter(self, nbr: int, key: Hashable, f: Filter) -> None:
        self._from_nbr[nbr].add(key, f)
        if self._engine is not None:
            self._engine.add_group_member(nbr, key, f)
        if self._candidates is not None:
            self._candidates.add(("n", nbr, key), f)

    def remove_broker_filter(self, nbr: int, key: Hashable) -> bool:
        """Remove; returns False if the key was absent."""
        removed = self._from_nbr[nbr].remove(key)
        if removed:
            if self._engine is not None:
                self._engine.discard_group_member(nbr, key)
            if self._candidates is not None:
                self._candidates.discard(("n", nbr, key))
        return removed

    def has_broker_filter(self, nbr: int, key: Hashable) -> bool:
        return key in self._from_nbr[nbr]

    def broker_filter_keys(self, nbr: int) -> list[Hashable]:
        return self._from_nbr[nbr].keys()

    def broker_filter_get(self, nbr: int, key: Hashable) -> Optional[Filter]:
        return self._from_nbr[nbr].get(key)

    def broker_filter_count(self, nbr: int) -> int:
        return len(self._from_nbr[nbr])

    def iter_broker_filters(self, nbr: int):
        """Lazy (key, filter) pairs from ``nbr``, in ``keys()`` order."""
        return self._from_nbr[nbr].iter_filters()

    # ------------------------------------------------------------------
    # advertisement mirror
    # ------------------------------------------------------------------
    def advertised_add(self, nbr: int, key: Hashable, f: Filter) -> None:
        self._advertised[nbr].add(key, f)

    def advertised_remove(self, nbr: int, key: Hashable) -> bool:
        return self._advertised[nbr].remove(key)

    def advertised_has(self, nbr: int, key: Hashable) -> bool:
        return key in self._advertised[nbr]

    def advertised_covers(self, nbr: int, f: Filter) -> bool:
        return self._advertised[nbr].covers(f)

    def advertised_keys(self, nbr: int) -> list[Hashable]:
        return self._advertised[nbr].keys()

    def advertised_get(self, nbr: int, key: Hashable) -> Optional[Filter]:
        return self._advertised[nbr].get(key)

    def advertised_count(self, nbr: int) -> int:
        return len(self._advertised[nbr])

    # ------------------------------------------------------------------
    # covering-based withdrawal support
    # ------------------------------------------------------------------
    def covered_candidates(
        self, nbr: int, f: Filter
    ) -> list[tuple[Hashable, Filter]]:
        """Table entries a withdrawal of ``f`` toward ``nbr`` could expose.

        When a covering-pruned advertisement is withdrawn, the only entries
        that can newly need re-advertising are those the withdrawn filter
        covers (anything else keeps whatever cover it already had). This
        enumerates exactly that set — every client entry and every filter
        from neighbours other than ``nbr`` with ``f.covers(entry)`` — in the
        order the legacy full-table scan (:meth:`iter_broker_filters` after
        the client entries) would visit them, so the indexed and scanning
        withdrawal paths re-advertise identical filters in identical order.
        """
        candidates = self._candidates
        if candidates is None:
            candidates = self._candidates = CoveringIndex()
            for key, entry in self.clients.items():
                candidates.add(("c", key), entry.filter)
            for nbr_id, peer in self._from_nbr.items():
                for key, installed in peer.filters.items():
                    candidates.add(("n", nbr_id, key), installed)
        ranked = []
        client_seq = self._client_seq
        for ckey in candidates.covered_by(f):
            if ckey[0] == "c":
                key = ckey[1]
                ranked.append(
                    ((-1, 0, client_seq[key]), key, self.clients[key].filter)
                )
            else:
                _tag, other, key = ckey
                if other == nbr:
                    continue
                peer = self._from_nbr[other]
                sub, seq = peer.order_key(key)
                ranked.append(((other, sub, seq), key, peer.filters[key]))
        ranked.sort(key=itemgetter(0))
        return [(key, cand) for _rank, key, cand in ranked]

    # ------------------------------------------------------------------
    # client entries
    # ------------------------------------------------------------------
    def set_client_entry(self, entry: ClientEntry) -> None:
        key_seq = self._client_seq.get(entry.key)
        if key_seq is None:
            key_seq = self._client_seq[entry.key] = next(self._next_seq)
        entry.seq = key_seq
        prev = self.clients.get(entry.key)
        if prev is not None and prev.client != entry.client:
            self._drop_client_ref(prev)
        self.clients[entry.key] = entry
        self._by_client.setdefault(entry.client, {})[entry.key] = entry
        if self._engine is not None:
            self._engine.add(entry.key, entry.filter)
        if self._candidates is not None:
            self._candidates.add(("c", entry.key), entry.filter)

    def _drop_client_ref(self, entry: ClientEntry) -> None:
        bucket = self._by_client.get(entry.client)
        if bucket is not None:
            bucket.pop(entry.key, None)
            if not bucket:
                del self._by_client[entry.client]

    def entries_for_client(self, client: int) -> list[ClientEntry]:
        bucket = self._by_client.get(client)
        if not bucket:
            return []
        if len(bucket) == 1:
            return list(bucket.values())
        # several entries (sub-unsub epoch overlap): report them in global
        # installation order, exactly as the old whole-table scan did
        return sorted(bucket.values(), key=_ENTRY_SEQ)

    def get_client_entry(self, client: int) -> Optional[ClientEntry]:
        """The unique entry for ``client`` (None if absent).

        Raises if the client has several entries here — callers relying on
        uniqueness (MHH) would be operating on ambiguous state.
        """
        entries = self.entries_for_client(client)
        if len(entries) > 1:
            raise ProtocolError(
                f"broker {self.broker_id}: client {client} has "
                f"{len(entries)} entries; use key-based access"
            )
        return entries[0] if entries else None

    def require_client_entry(self, client: int) -> ClientEntry:
        entry = self.get_client_entry(client)
        if entry is None:
            raise ProtocolError(
                f"broker {self.broker_id}: no client entry for client {client}"
            )
        return entry

    def get_entry_by_key(self, key: Hashable) -> Optional[ClientEntry]:
        return self.clients.get(key)

    def remove_client_entry(self, client: int) -> None:
        entry = self.require_client_entry(client)
        self.remove_entry_by_key(entry.key)

    def remove_entry_by_key(self, key: Hashable) -> None:
        entry = self.clients.pop(key, None)
        if entry is None:
            raise ProtocolError(
                f"broker {self.broker_id}: removing absent entry {key!r}"
            )
        self._drop_client_ref(entry)
        self._client_seq.pop(key, None)
        if self._engine is not None:
            self._engine.discard(key)
        if self._candidates is not None:
            self._candidates.discard(("c", key))

    # ------------------------------------------------------------------
    # matching (the hot path)
    # ------------------------------------------------------------------
    def match(
        self, event: Notification, from_broker: Optional[int]
    ) -> tuple[list[int], list[ClientEntry]]:
        """Resolve one event in a single pass over the whole table.

        Returns ``(neighbours, client_entries)``: the neighbours (excluding
        ``from_broker``) to forward the event to, and the matching client
        entries honouring MHH labels. With the counting engine this is one
        :meth:`CountingMatchingEngine.match_with_groups` call for
        everything; in scan mode it composes the two legacy loops.
        Neighbour order is ascending id, client-entry order is insertion
        order — identical across modes.
        """
        if self._engine is None:
            return (
                self.match_neighbors(event, exclude=from_broker),
                self.match_clients(event, from_broker),
            )
        keys, groups = self._engine.match_with_groups(event)
        entries: list[ClientEntry] = []
        for key in keys:
            entry = self.clients[key]
            if entry.label is not None and entry.label != from_broker:
                continue
            entries.append(entry)
        entries.sort(key=_ENTRY_SEQ)
        groups.discard(from_broker)
        return sorted(groups), entries

    def match_batch(
        self, items: list[tuple[Notification, Optional[int]]]
    ) -> list[tuple[list[int], list[ClientEntry]]]:
        """:meth:`match` for each ``(event, from_broker)`` pair, in order.

        No broker calls this; it stays as the batch-shaped entry point that
        ``perfbench/tracing.py`` wraps by name.
        """
        return [self.match(e, f) for e, f in items]

    def match_neighbors(
        self, event: Notification, exclude: Optional[int]
    ) -> list[int]:
        """Neighbours (excluding ``exclude``) with at least one matching filter."""
        if self._engine is not None:
            groups = self._engine.match_with_groups(event)[1]
            groups.discard(exclude)
            return sorted(groups)
        out = []
        for n in self.neighbors:
            if n == exclude:
                continue
            if self._from_nbr[n].matches(event):
                out.append(n)
        return out

    def match_clients(
        self, event: Notification, from_broker: Optional[int]
    ) -> list[ClientEntry]:
        """Client entries matching ``event``, honouring MHH labels.

        A labelled entry accepts the event only when it arrived from the
        labelled neighbouring broker; locally published events
        (``from_broker is None``) never match labelled entries.
        """
        if self._engine is not None:
            return self.match(event, from_broker)[1]
        out = []
        for entry in self.clients.values():
            if entry.label is not None and entry.label != from_broker:
                continue
            if entry.filter.matches(event):
                out.append(entry)
        return out

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------
    def snapshot_broker_filters(self) -> dict[int, set]:
        return {n: set(pf.keys()) for n, pf in self._from_nbr.items()}

    def snapshot_advertised(self) -> dict[int, set]:
        return {n: set(pf.keys()) for n, pf in self._advertised.items()}
