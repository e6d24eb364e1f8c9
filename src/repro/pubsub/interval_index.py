"""Fast stabbing/containment queries over a dynamic set of closed intervals.

The broker hot path asks, for every event at every hop, "does any filter
advertised by neighbour *n* match this event?" — with range filters this is
an interval *stabbing* query. The subscription-propagation path asks "is this
new interval contained in an existing one?" — a *containment* query. The
covering-based withdrawal path asks the reverse: "which installed intervals
does this withdrawn one contain?" — a containment *enumeration*
(:meth:`~IntervalIndex.contained_keys`).

The broker-wide counting engine (:mod:`repro.pubsub.matching`) additionally
asks "*which* intervals contain this point?" — a stabbing *enumeration*
query (:meth:`~IntervalIndex.stab_all`).

Boolean stab and containment are answered in O(log n) from one structure:
intervals sorted by ``(lo, hi)`` with prefix maxima over ``hi`` (top-2
maxima, so containment can exclude one key). Mobility churn mutates these
indexes on **every handoff**, so mutation cost is what shapes the paper's
Figure 5(a)/6(a) curves; the index therefore maintains the sorted arrays
*incrementally* — a bisect insert/delete plus a local repair of the prefix
maxima (the repair stops at the first position whose top-2 is unaffected),
so a mutation costs O(log n) comparisons plus one C-level ``memmove``
instead of the former full O(n log n) re-sort. Enumeration is answered from
a centred interval tree built lazily; mutations go into a small pending
overlay (a tombstone set plus an extras map consulted at query time) and
the tree is only rebuilt once the overlay outgrows a fraction of the index.

The former rebuild-the-world behaviour — mark dirty on any mutation, re-sort
on the next query — is kept behind ``IntervalIndex(incremental=False)`` as
the differential-testing oracle and the benchmark baseline
(``benchmarks/bench_control_plane.py``); both modes must answer every query
identically (``tests/test_control_plane.py`` asserts it under randomized
churn).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Hashable, Iterator, Optional

__all__ = ["IntervalIndex"]

_NEG_INF = float("-inf")
_POS_INF = float("inf")

#: pending-overlay spill threshold: rebuild the stab_all tree once more than
#: max(_TREE_SLACK, n/8) mutations have accumulated since it was built
_TREE_SLACK = 16


class IntervalIndex:
    """Dynamic set of keyed closed intervals with fast queries.

    Examples
    --------
    >>> idx = IntervalIndex()
    >>> idx.add("a", 0.1, 0.4)
    >>> idx.add("b", 0.3, 0.9)
    >>> idx.stab(0.35)
    True
    >>> idx.stab(0.95)
    False
    >>> idx.contains_interval(0.2, 0.4)  # covered by "a"? lo 0.1<=0.2, hi 0.4>=0.4 -> yes
    True
    """

    __slots__ = (
        "_items", "_incremental", "_dirty", "_pairs", "_keys",
        "_max1_hi", "_max1_key", "_max2_hi",
        "_tree", "_tree_removed", "_tree_extra",
    )

    def __init__(self, incremental: bool = True) -> None:
        self._items: dict[Hashable, tuple[float, float]] = {}
        self._incremental = incremental
        self._dirty = True
        self._pairs: list[tuple[float, float]] = []
        self._keys: list[Hashable] = []
        self._max1_hi: list[float] = []
        self._max1_key: list[Hashable] = []
        self._max2_hi: list[float] = []
        self._tree: Optional[tuple] = None
        self._tree_removed: set = set()
        self._tree_extra: dict[Hashable, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: Hashable, lo: float, hi: float) -> None:
        """Insert or replace interval ``key``."""
        if self._incremental:
            if not self._dirty:
                old = self._items.get(key)
                if old is not None:
                    self._remove_sorted(key, old)
                self._insert_sorted(key, lo, hi)
            # the stab_all tree is patched through the overlay even while
            # the boolean arrays are still dirty: consumers that only ever
            # call stab_all (the counting engine's per-attribute indexes)
            # must not pay a full tree rebuild per mutation
            self._items[key] = (lo, hi)
            self._tree_update(key, (lo, hi))
            return
        self._items[key] = (lo, hi)
        self._dirty = True
        self._tree = None

    def remove(self, key: Hashable) -> None:
        """Remove interval ``key`` (KeyError if absent)."""
        iv = self._items.pop(key)
        self._after_remove(key, iv)

    def discard(self, key: Hashable) -> None:
        """Remove interval ``key`` if present."""
        iv = self._items.pop(key, None)
        if iv is not None:
            self._after_remove(key, iv)

    def _after_remove(self, key: Hashable, iv: tuple[float, float]) -> None:
        if self._incremental:
            if not self._dirty:
                self._remove_sorted(key, iv)
            self._tree_update(key, None)
            return
        self._dirty = True
        self._tree = None

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable) -> Optional[tuple[float, float]]:
        return self._items.get(key)

    def items(self) -> Iterator[tuple[Hashable, tuple[float, float]]]:
        return iter(self._items.items())

    # ------------------------------------------------------------------
    # incremental maintenance of the sorted arrays
    # ------------------------------------------------------------------
    def _insert_sorted(self, key: Hashable, lo: float, hi: float) -> None:
        pairs = self._pairs
        i = bisect_right(pairs, (lo, hi))
        pairs.insert(i, (lo, hi))
        self._keys.insert(i, key)
        m1, mk, m2 = self._max1_hi, self._max1_key, self._max2_hi
        if i == 0:
            best, bkey, second = _NEG_INF, None, _NEG_INF
        else:
            best, bkey, second = m1[i - 1], mk[i - 1], m2[i - 1]
        if hi > best:
            second = best
            best, bkey = hi, key
        elif hi > second:
            second = hi
        m1.insert(i, best)
        mk.insert(i, bkey)
        m2.insert(i, second)
        # ripple the new hi into the (shifted) suffix triples. Prefix top-2
        # values are non-decreasing, so once hi falls out of some prefix's
        # top-2 it can never re-enter: stop at the first unaffected slot.
        for j in range(i + 1, len(pairs)):
            if hi <= m2[j]:
                break
            if hi > m1[j]:
                m2[j] = m1[j]
                m1[j] = hi
                mk[j] = key
            else:
                m2[j] = hi

    def _remove_sorted(self, key: Hashable, iv: tuple[float, float]) -> None:
        pairs = self._pairs
        keys = self._keys
        i = bisect_left(pairs, iv)
        while keys[i] != key:  # equal (lo, hi) pairs: scan for the key
            i += 1
        pairs.pop(i)
        keys.pop(i)
        m1, mk, m2 = self._max1_hi, self._max1_key, self._max2_hi
        m1.pop(i)
        mk.pop(i)
        m2.pop(i)
        if i == 0:
            best, bkey, second = _NEG_INF, None, _NEG_INF
        else:
            best, bkey, second = m1[i - 1], mk[i - 1], m2[i - 1]
        # re-run the prefix recurrence from the removal point; once the
        # running state matches what is stored, the rest is unchanged too
        # (same deterministic recurrence over identical remaining elements)
        for j in range(i, len(pairs)):
            hj = pairs[j][1]
            if hj > best:
                second = best
                best, bkey = hj, keys[j]
            elif hj > second:
                second = hj
            if m1[j] == best and mk[j] == bkey and m2[j] == second:
                break
            m1[j], mk[j], m2[j] = best, bkey, second

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # key is the (lo, hi) pair itself; a C-level itemgetter avoids a
        # python-level lambda per item. In incremental mode this runs once
        # (first query after bulk load); afterwards mutations maintain the
        # arrays in place. In rebuild mode every mutation re-triggers it.
        order = sorted(self._items.items(), key=itemgetter(1))
        n = len(order)
        self._keys = [k for k, _iv in order]
        self._pairs = [iv for _k, iv in order]
        self._max1_hi = [0.0] * n
        self._max1_key = [None] * n
        self._max2_hi = [0.0] * n
        best_hi, best_key, second_hi = _NEG_INF, None, _NEG_INF
        for i, (k, (_lo, hi)) in enumerate(order):
            if hi > best_hi:
                second_hi = best_hi
                best_hi, best_key = hi, k
            elif hi > second_hi:
                second_hi = hi
            self._max1_hi[i] = best_hi
            self._max1_key[i] = best_key
            self._max2_hi[i] = second_hi
        self._dirty = False

    def stab(self, x: float) -> bool:
        """True if any interval contains point ``x``."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._pairs, (x, _POS_INF)) - 1
        return idx >= 0 and self._max1_hi[idx] >= x

    def contains_interval(
        self, lo: float, hi: float, exclude: Hashable = None
    ) -> bool:
        """True if some interval (other than ``exclude``) contains [lo, hi]."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._pairs, (lo, _POS_INF)) - 1
        if idx < 0:
            return False
        if self._max1_key[idx] != exclude:
            return self._max1_hi[idx] >= hi
        return self._max2_hi[idx] >= hi

    def contained_keys(self, lo: float, hi: float) -> list[Hashable]:
        """Keys whose interval [l, h] satisfies ``lo <= l`` and ``h <= hi``.

        The covering enumeration: every installed interval the (withdrawn)
        interval [lo, hi] covers. Cost is O(log n + w) where w is the number
        of intervals whose ``l`` falls inside [lo, hi] — output-shaped for
        the narrow filters mobility workloads install.
        """
        if self._dirty:
            self._rebuild()
        pairs = self._pairs
        keys = self._keys
        out: list[Hashable] = []
        for i in range(bisect_left(pairs, (lo, _NEG_INF)), len(pairs)):
            l, h = pairs[i]
            if l > hi:
                break
            if h <= hi:
                out.append(keys[i])
        return out

    def stabbing_keys(self, x: float) -> list[Hashable]:
        """All keys whose interval contains ``x`` (linear scan; cold path)."""
        return [k for k, (lo, hi) in self._items.items() if lo <= x <= hi]

    # ------------------------------------------------------------------
    # stabbing enumeration (centred interval tree + pending overlay; hot
    # path of the counting engine)
    # ------------------------------------------------------------------
    def _tree_update(self, key: Hashable, iv: Optional[tuple[float, float]]) -> None:
        if self._tree is None:
            return  # no tree built yet: nothing to patch
        removed = self._tree_removed
        removed.add(key)
        if iv is None:
            self._tree_extra.pop(key, None)
        else:
            self._tree_extra[key] = iv
        if len(removed) > _TREE_SLACK and len(removed) * 8 > len(self._items):
            self._tree = None
            removed.clear()
            self._tree_extra.clear()

    def stab_all(self, x: float) -> list[Hashable]:
        """All keys whose interval contains ``x`` in O(log n + k).

        Unordered. NaN stabs nothing (consistent with comparison
        semantics: ``lo <= nan`` is False).
        """
        if x != x:
            return []
        node = self._tree
        if node is None:
            self._tree_removed.clear()
            self._tree_extra.clear()
            node = self._tree = _build_tree(
                [(lo, hi, k) for k, (lo, hi) in self._items.items()]
            )
        out: list[Hashable] = []
        while node is not None and node[7] <= x <= node[8]:
            center = node[0]
            if x < center:
                if node[5] <= x:
                    for lo, k in node[3]:
                        if lo > x:
                            break
                        out.append(k)
                node = node[1]
            elif x > center:
                if node[6] >= x:
                    for hi, k in node[4]:
                        if hi < x:
                            break
                        out.append(k)
                node = node[2]
            else:
                # x == center: every interval at this node contains x; the
                # left subtree ends before x and the right starts after it
                out.extend(k for _, k in node[3])
                break
        removed = self._tree_removed
        if removed:
            out = [k for k in out if k not in removed]
        if self._tree_extra:
            for k, (lo, hi) in self._tree_extra.items():
                if lo <= x <= hi:
                    out.append(k)
        return out


def _build_tree(items: list[tuple[float, float, Hashable]]) -> Optional[tuple]:
    """Centred interval tree over ``(lo, hi, key)`` triples.

    The centre is the median endpoint, so each side holds at most half of
    the endpoints and depth is O(log n) regardless of interval layout.

    Nodes are 9-tuples ``(center, left, right, by_lo, by_hi, lo0, hi0,
    min_lo, max_hi)``: ``lo0``/``hi0`` are the first endpoints of the mid
    lists (a probe whose value cannot reach them skips the scan without
    paying loop setup) and ``min_lo``/``max_hi`` span the whole *subtree*
    (a probe outside the span stops descending — narrow mobility intervals
    make most subtrees skippable well before the leaves).
    """
    if not items:
        return None
    endpoints = sorted(
        v for lo, hi, _k in items for v in (lo, hi)
    )
    center = endpoints[len(endpoints) // 2]
    left = [it for it in items if it[1] < center]
    right = [it for it in items if it[0] > center]
    mid = [it for it in items if it[0] <= center <= it[1]]
    # sort on the endpoint only: keys may not be mutually comparable
    first = itemgetter(0)
    by_lo = sorted(((lo, k) for lo, _hi, k in mid), key=first)
    by_hi = sorted(((hi, k) for _lo, hi, k in mid), key=first, reverse=True)
    return (
        center, _build_tree(left), _build_tree(right), by_lo, by_hi,
        by_lo[0][0], by_hi[0][0], endpoints[0], endpoints[-1],
    )
