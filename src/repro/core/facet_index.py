"""Facet-indexed query acceleration for the benchmark database.

The Figure 1 web form filters the artifact store along a handful of
low-cardinality facets (gate library, clocking scheme, algorithm,
optimizations, abstraction level, suite, name).  Serving those filters
by scanning every record per request — as
``BenchmarkDatabase._query_linear`` still does, retained as the
differential oracle — costs O(records × facets) Python-level work per
query.  :class:`FacetIndex` replaces the scan with interned facet
values and **bitmap posting sets**: one arbitrary-precision Python int
per facet value, bit *i* set iff record ordinal *i* carries the value.
A query then reduces to a few integer AND/ORs:

* OR the bitmaps of the selected values within a facet,
* AND across facets (optimizations AND individually — the form requires
  *all* selected optimizations to be applied),
* apply the network-record rule (library/scheme/algorithm facets only
  admit network files when networks were explicitly requested).

``best_only`` ("most optimal" on the site) uses per-``(suite, name,
gate library)`` group lists pre-sorted by area rank; the area-best hit
of a group is the first member whose bit survives the filter mask.
Final result ordering is a stable sort over precomputed per-record sort
keys, bit-for-bit identical to the linear path (the property tests in
``tests/core/test_facet_index.py`` assert exact equality, object
identity included).

The index is never persisted: a database builds it on its first
query and a served snapshot when it is taken, each in one pass over
``index.json``'s records — cheaper than loading and validating a
stored copy.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right

from .selection import AbstractionLevel, Selection

#: The indexed facets.
FACET_NAMES = (
    "suite",
    "name",
    "abstraction_level",
    "gate_library",
    "clocking_scheme",
    "algorithm",
    "optimization",
)


def records_digest(records) -> str:
    """Content digest of a record list — the ETag base of a served
    snapshot (:mod:`repro.core.snapshot`)."""
    payload = json.dumps([r.to_json() for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _area_rank(record) -> tuple[bool, int]:
    """Area sort rank: only ``None`` counts as missing (ranks last); a
    legitimate ``area == 0`` must rank best."""
    return (record.area is None, record.area if record.area is not None else 0)


class FacetIndex:
    """Bitmap posting sets over one database's record list."""

    def __init__(self) -> None:
        self.num_records = 0
        #: Bitmap with one bit per indexed record.
        self.all_mask = 0
        #: facet → interned value (lowercased) → posting bitmap.
        self.bitmaps: dict[str, dict[str, int]] = {f: {} for f in FACET_NAMES}
        #: (suite, name, gate_library) → gate-level ordinals, stably
        #: sorted by area rank — the ``best_only`` fast path.
        self._groups: dict[tuple, list[int]] = {}
        self._group_ranks: dict[tuple, list[tuple]] = {}
        #: Per-ordinal result sort key (suite, name, level, area rank).
        self._sort_keys: list[tuple] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, records) -> "FacetIndex":
        index = cls()
        for record in records:
            index.add(record)
        return index

    def add(self, record) -> None:
        """Index one appended record (ordinal = current record count)."""
        ordinal = self.num_records
        bit = 1 << ordinal
        self.num_records += 1
        self.all_mask |= bit
        tables = self.bitmaps

        def tally(facet: str, value) -> None:
            key = str(value).lower()
            table = tables[facet]
            table[key] = table.get(key, 0) | bit

        tally("suite", record.suite)
        tally("name", record.name)
        tally("abstraction_level", record.abstraction_level.value)
        area = record.area
        self._sort_keys.append(
            (
                record.suite,
                record.name,
                record.abstraction_level.value,
                area is None,
                area if area is not None else 0,
            )
        )
        if record.abstraction_level is not AbstractionLevel.GATE_LEVEL:
            return
        tally("gate_library", record.gate_library or "")
        tally("clocking_scheme", record.clocking_scheme or "")
        tally("algorithm", record.algorithm or "")
        for optimization in record.optimizations:
            tally("optimization", optimization)
        group = (record.suite, record.name, record.gate_library)
        rank = _area_rank(record)
        ranks = self._group_ranks.setdefault(group, [])
        ordinals = self._groups.setdefault(group, [])
        # Stable: equal ranks keep record order, like a stable sort.
        position = bisect_right(ranks, rank)
        ranks.insert(position, rank)
        ordinals.insert(position, ordinal)

    # -- querying -------------------------------------------------------------

    def query(self, selection: Selection, records) -> list:
        """The ``records`` (the list this index was built from) passing
        ``selection``, area-best first per function — identical objects
        and order to ``BenchmarkDatabase._query_linear``."""
        bits = self.query_bitmap(selection)
        if selection.best_only:
            ordinals = self.best_ordinals(bits)
        else:
            ordinals = self.iter_ordinals(bits)
        return [records[i] for i in self.sorted_ordinals(ordinals)]

    def _facet_mask(self, facet: str, selected) -> int:
        mask = 0
        table = self.bitmaps[facet]
        for value in selected:
            mask |= table.get(value, 0)
        return mask

    def query_bitmap(self, selection: Selection) -> int:
        """The filter as one bitmap — a handful of AND/ORs."""
        bits = self.all_mask
        if selection.abstraction_levels:
            bits &= self._facet_mask(
                "abstraction_level",
                (level.value for level in selection.abstraction_levels),
            )
        if selection.suites:
            bits &= self._facet_mask("suite", selection.suites)
        if selection.names:
            bits &= self._facet_mask("name", selection.names)
        if (
            selection.gate_libraries
            or selection.clocking_schemes
            or selection.algorithms
            or selection.optimizations
        ):
            allowed = self.bitmaps["abstraction_level"].get(
                AbstractionLevel.GATE_LEVEL.value, 0
            )
            if selection.gate_libraries:
                allowed &= self._facet_mask("gate_library", selection.gate_libraries)
            if selection.clocking_schemes:
                allowed &= self._facet_mask(
                    "clocking_scheme", selection.clocking_schemes
                )
            if selection.algorithms:
                allowed &= self._facet_mask("algorithm", selection.algorithms)
            for optimization in selection.optimizations:
                allowed &= self.bitmaps["optimization"].get(optimization, 0)
            if AbstractionLevel.NETWORK in selection.abstraction_levels:
                # Layout facets don't disqualify network files the user
                # explicitly asked for.
                allowed |= self.bitmaps["abstraction_level"].get(
                    AbstractionLevel.NETWORK.value, 0
                )
            bits &= allowed
        return bits

    @staticmethod
    def iter_ordinals(bits: int):
        """Set bits of ``bits``, ascending (= record order)."""
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def best_ordinals(self, bits: int) -> list[int]:
        """The area-best surviving ordinal of every (suite, name,
        library) group, ordered exactly like the linear path: by each
        group's first surviving record."""
        picked: list[tuple[int, int]] = []
        for ordinals in self._groups.values():
            best = None
            first_hit = None
            for ordinal in ordinals:  # rank-sorted, stable
                if (bits >> ordinal) & 1:
                    best = ordinal
                    break
            if best is None:
                continue
            first_hit = min(o for o in ordinals if (bits >> o) & 1)
            picked.append((first_hit, best))
        picked.sort()
        return [best for _, best in picked]

    def sorted_ordinals(self, ordinals) -> list[int]:
        """Stable result ordering by the precomputed per-record keys."""
        return sorted(ordinals, key=self._sort_keys.__getitem__)
