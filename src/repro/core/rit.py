"""Row Indirection Tables (RIT) for RRS and SRS.

The RIT is the per-bank structure that records where a logical row's data
currently lives. Two variants are modelled:

- :class:`RRSIndirectionTable` stores *tuple pairs*: when rows A and B are
  swapped, both ``<A,B>`` and ``<B,A>`` are present, and mappings are
  always pure transpositions because RRS immediately unswaps a row before
  re-swapping it.

- :class:`SRSIndirectionTable` is split into a *real* part (logical row ->
  location) and a *mirrored* part (location -> logical row). Tuples have no
  fixed pairs: swap-only remapping creates chains such as ``<A,C>, <C,B>,
  <B,A>`` (Figure 9 of the paper), which is exactly what removes the latent
  activation on the original location of a re-swapped row.

Terminology used throughout: a *location* is named by the logical row
whose home it is; ``resolve`` maps a logical row to the location holding
its data (identity when unswapped).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple


class RITCapacityError(RuntimeError):
    """Raised when the RIT cannot accept another mapping this epoch."""


class RRSIndirectionTable:
    """Tuple-paired RIT used by Randomized Row-Swap.

    Invariant: the mapping is an involution — ``resolve(resolve(r)) == r``
    for every row. Entries carry a lock bit; entries from the previous
    epoch are unlocked and may be evicted (after being physically
    unswapped by the engine) to make room.
    """

    def __init__(self, capacity: int, rng: Optional[random.Random] = None):
        if capacity <= 1:
            raise ValueError("capacity must exceed one tuple pair")
        self.capacity = capacity
        self.rng = rng or random.Random(0x5A5)
        self._map: Dict[int, int] = {}
        self._locked: Set[int] = set()

    def __len__(self) -> int:
        return len(self._map)

    def resolve(self, row: int) -> int:
        """Location currently holding ``row``'s data."""
        return self._map.get(row, row)

    def resolve_view(self) -> Dict[int, int]:
        """The live mapping dict behind :meth:`resolve` (rows absent map
        to themselves). Mutated in place by swap/unswap recording, so a
        holder observes every committed swap without re-fetching."""
        return self._map

    def is_swapped(self, row: int) -> bool:
        return row in self._map

    def partner(self, row: int) -> Optional[int]:
        """The row ``row`` is currently swapped with, if any."""
        return self._map.get(row)

    def stale_pairs(self) -> List[Tuple[int, int]]:
        """Unlocked (previous-epoch) swapped pairs, each listed once."""
        seen = set()
        out = []
        for a, b in self._map.items():
            if a in self._locked or a in seen or b in seen:
                continue
            seen.add(a)
            seen.add(b)
            out.append((a, b))
        return out

    def room_for_pair(self) -> bool:
        return len(self._map) + 2 <= self.capacity

    def pick_stale_pair(self) -> Optional[Tuple[int, int]]:
        """A random previous-epoch pair, for eviction; ``None`` if none."""
        stale = self.stale_pairs()
        if not stale:
            return None
        return self.rng.choice(stale)

    def record_swap(self, a: int, b: int) -> None:
        """Record that unswapped rows ``a`` and ``b`` exchanged contents."""
        if a == b:
            raise ValueError("cannot swap a row with itself")
        if a in self._map or b in self._map:
            raise ValueError("RRS requires rows to be unswapped before a new swap")
        if not self.room_for_pair():
            raise RITCapacityError("RIT full; evict a stale pair first")
        self._map[a] = b
        self._map[b] = a
        self._locked.add(a)
        self._locked.add(b)

    def record_unswap(self, a: int) -> int:
        """Remove the pair containing ``a``; returns the former partner."""
        b = self._map.pop(a, None)
        if b is None:
            raise KeyError(f"row {a} is not swapped")
        del self._map[b]
        self._locked.discard(a)
        self._locked.discard(b)
        return b

    def end_epoch(self) -> int:
        """Clear all lock bits; returns the number of entries unlocked."""
        n = len(self._locked)
        self._locked.clear()
        return n

    def check_invariants(self) -> None:
        """Verify the involution property; raises ``AssertionError``."""
        for a, b in self._map.items():
            assert self._map.get(b) == a, f"tuple pair broken: <{a},{b}>"
            assert a != b, f"self-mapping: {a}"


class SRSIndirectionTable:
    """Split real/mirrored swap-only RIT used by Secure Row-Swap.

    Invariants:

    - the *real* part (``loc_of``) and *mirrored* part (``row_at``) are
      exact inverses of each other;
    - the mapping restricted to its support is a permutation with no fixed
      points (identity mappings are never stored).
    """

    def __init__(self, capacity: int, rng: Optional[random.Random] = None):
        if capacity <= 1:
            raise ValueError("capacity must exceed one entry pair")
        self.capacity = capacity
        self.rng = rng or random.Random(0x5E5)
        # real part: logical row -> location holding its data
        self._loc_of: Dict[int, int] = {}
        # mirrored part: location -> logical row stored there
        self._row_at: Dict[int, int] = {}
        self._locked_rows: Set[int] = set()

    def __len__(self) -> int:
        """Total entries across the real and mirrored halves."""
        return len(self._loc_of) + len(self._row_at)

    def resolve(self, row: int) -> int:
        """Location currently holding ``row``'s data."""
        return self._loc_of.get(row, row)

    def resolve_view(self) -> Dict[int, int]:
        """The live real-part dict behind :meth:`resolve` (rows absent
        map to themselves). Mutated in place by swaps and place-backs,
        so a holder observes every committed remap without re-fetching."""
        return self._loc_of

    def occupant(self, location: int) -> int:
        """Logical row whose data currently sits at ``location``."""
        return self._row_at.get(location, location)

    def is_swapped(self, row: int) -> bool:
        return row in self._loc_of

    def room_for_swap(self) -> bool:
        # A swap adds at most two new rows to the real part (and their
        # mirrored inverses).
        return len(self._loc_of) + 2 <= self.capacity // 2

    def _set(self, row: int, location: int) -> None:
        if row == location:
            # Identity mapping: the row moved back home; drop the entries.
            self._loc_of.pop(row, None)
            self._row_at.pop(location, None)
            self._locked_rows.discard(row)
        else:
            self._loc_of[row] = location
            self._row_at[location] = row
            self._locked_rows.add(row)

    def record_swap(self, row: int, target_location: int) -> int:
        """Swap ``row``'s data with the contents of ``target_location``.

        Returns the logical row that previously occupied the target
        location (and now occupies ``row``'s former location).
        """
        source_location = self.resolve(row)
        if source_location == target_location:
            raise ValueError("swap target must differ from the row's location")
        displaced = self.occupant(target_location)
        if displaced == row:
            raise AssertionError("occupant inconsistency")
        if not self.room_for_swap():
            raise RITCapacityError("SRS RIT full; run lazy evictions first")
        self._set(row, target_location)
        self._set(displaced, source_location)
        return displaced

    def place_back(self, row: int) -> Optional[int]:
        """Move ``row``'s data to its home location (one place-back step).

        If another row's data currently occupies ``row``'s home, that data
        is displaced to ``row``'s former location (through the place-back
        buffer in hardware); the displaced row is returned so the engine
        can continue the chain. Returns ``None`` when the chain ends.
        """
        location = self._loc_of.get(row)
        if location is None:
            return None
        displaced = self.occupant(row)  # whoever sits in `row`'s home
        displaced_was_locked = displaced in self._locked_rows
        self._set(row, row)  # row goes home (drops its entries)
        if displaced == row:
            return None
        self._set(displaced, location)
        # Moving through the place-back buffer does not renew the displaced
        # row's epoch: if it was stale it stays stale (and will itself be
        # placed back later in the lazy-eviction schedule).
        if not displaced_was_locked:
            self._locked_rows.discard(displaced)
        return displaced if self._loc_of.get(displaced) is not None else None

    def stale_rows(self) -> List[int]:
        """Rows with previous-epoch (unlocked) entries in the real part."""
        return [r for r in self._loc_of if r not in self._locked_rows]

    def pick_stale_row(self) -> Optional[int]:
        stale = self.stale_rows()
        if not stale:
            return None
        return self.rng.choice(stale)

    def end_epoch(self) -> int:
        n = len(self._locked_rows)
        self._locked_rows.clear()
        return n

    def displaced_rows(self) -> List[int]:
        """All rows currently away from home."""
        return list(self._loc_of)

    def check_invariants(self) -> None:
        """Verify real/mirror inverse consistency; raises on violation."""
        assert len(self._loc_of) == len(self._row_at), "real/mirror size mismatch"
        for row, loc in self._loc_of.items():
            assert row != loc, f"identity mapping stored for {row}"
            assert self._row_at.get(loc) == row, f"mirror broken for <{row},{loc}>"
        for loc, row in self._row_at.items():
            assert self._loc_of.get(row) == loc, f"real broken for <{loc},{row}>"
