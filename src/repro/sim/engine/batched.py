"""The batched engine: a fused scheduling loop over hoisted state.

Both engines run over the same pre-decoded traces
(:func:`~repro.sim.engine.base.decode_traces`), but the scalar step
still pays about ten Python-level calls per activating read: the core
advance, ``MemorySystem._read`` (and the mitigation's ``tick``),
``_service``, ``Bank.access`` and its result, ``on_activation`` and
the tracker's ``observe`` and its result, the core's read bookkeeping,
plus the heap pop and push (the row indirection and the pin filter are
live-view lookups, and a same-window ACT is counted in-line). On the
21 cells of ``repro grid`` over gcc/hmmer/povray x rrs/srs/scale-srs x
TRH 2400/1200 (4 cores x 12 000 requests) the scalar engine spends
about 6.6 us of cell CPU per access, from 9.2 us before those calls
were trimmed (medians of six alternating serial runs, 2-CPU host,
Python 3.11.7). This engine removes that overhead with a *fused* loop
that keeps all bank, bus, and core state in hoisted parallel arrays —
servicing *spans* of consecutive accesses without touching a single
simulated object. Every expression in the fused loop replicates the
scalar path's IEEE-754 operations in the same order, so results are
bit-identical: this is a faster schedule of the same arithmetic, never
a different model (enforced by ``tests/test_engine_equivalence.py``
and the differential fuzzing harness in ``tests/test_engine_fuzz.py``).

A *span* is the maximal run of accesses one bank's mitigation tolerates
before its objects have to be consulted. The quiescence contract is
per bank and decomposed over the events a mitigation can generate:

- **swaps / tracker triggers** are bounded by
  :meth:`~repro.core.mitigation.Mitigation.batch_horizon` (a bank-wide
  ACT budget) with a per-row rescue,
  :meth:`~repro.core.mitigation.Mitigation.row_headroom` under
  :meth:`~repro.core.mitigation.Mitigation.batch_slack` — so one hot
  row parked just below the swap threshold only forces *its own*
  activations to the scalar path, not every access to the bank;
- **row indirection** needs no span cut at all: resolves go through the
  *live* dict from
  :meth:`~repro.core.mitigation.Mitigation.resolve_map`, which full-path
  swap handling mutates in place;
- **LLC pins** (Scale-SRS) likewise: the live set from
  :meth:`~repro.core.mitigation.Mitigation.batch_pinned_view` is checked
  per fused access, so pin-buffer transitions (which only happen inside
  full-path swap handling and at window rolls) are always honoured;
- **timed background work** (SRS place-backs) is bounded by
  :meth:`~repro.core.mitigation.Mitigation.batch_quiet_until`: ``tick``
  runs at read-issue time and, on activations, again at the bank finish
  time, so fused reads require ``clock < quiet`` and fused ACTs
  additionally ``finish < quiet``.

When a single access fails its gate — headroom exhausted, quiet instant
reached — it is serviced *scoped*: only its bank is written back
(pending tracker observations committed via ``Tracker.observe_batch``),
the access runs through the full ``MemorySystem`` path, and the bank is
re-hoisted with fresh horizon/slack/quiet values. Other banks' hoisted
state stays live throughout, which is what keeps swap designs ~95%
fused even while swapping. Refresh-window boundaries and write-queue
drains cut spans as before (the boundary-crossing access runs full-path;
drains replay buffered writes with the same per-ACT gates). Every
re-hoist snapshots the bank's mitigation-event count and the next
observation commit asserts it unchanged — a fused span provably never
crosses a swap, pin, place-back, or counter access.

Mitigations whose horizon, headroom, and slack are all 0 (Hydra-tracked
banks: any observation may miss the counter cache and cost DRAM
accesses) run access-by-access through the same calls the scalar engine
makes — correct under this engine from day one, just not faster. The
fast path assumes well-formed traces (rows in range, non-negative gaps);
the scalar path's defensive checks are the ones that would catch
malformed input.

Maintenance rule: any change to the scalar access path
(``MemorySystem._read``/``_write``/``_service``/``_drain_writes``,
``Bank.access`` — including its in-line ACT count, which bumps
``ActivationStats._counts`` and ``lifetime_activations`` directly and
calls ``ActivationStats.record`` only on a window change —
``TraceCore.advance``) or to mitigation/tracker bookkeeping consulted
within a span must be mirrored here, and ``tests/test_engine_fuzz.py``
is the harness that catches a missed mirror. DESIGN.md lists the state
the fused loop mirrors.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.controller.memory_system import MemorySystem
from repro.controller.queues import PendingWrite
from repro.cpu.core import TraceCore
from repro.dram.commands import PagePolicy
from repro.sim.engine.base import (
    Engine,
    _DecodedTrace,
    decode_traces,
    scalar_stretch,
)
from repro.workloads.columnar import ColumnarTrace


class BatchedEngine(Engine):
    """Fused-loop engine with hoisted bank/bus/core state.

    Attributes:
        counters: Span accounting of the last :meth:`drive` — how many
            accesses ran fused (``fast_accesses``) vs. through the full
            memory path (``scalar_accesses``, of which
            ``scoped_accesses`` were single-access scoped fallbacks and
            ``pinned_fast_hits`` counts separately as fused LLC
            absorptions), which events cut spans (``drains``,
            ``window_rolls``), how often a bank's horizon state was
            recomputed (``horizon_refreshes``: one per scoped re-hoist
            or full re-hoist), and how many span-crossing assertions ran
            (``span_checks``: every batch commit proves no mitigation
            event landed inside the span). Tests use it to prove the
            fast path actually engaged — ``fast_accesses +
            scalar_accesses`` always equals the total demand accesses of
            the run.
    """

    name = "batched"

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {
            "fast_accesses": 0,
            "scalar_accesses": 0,
            "scoped_accesses": 0,
            "pinned_fast_hits": 0,
            "drains": 0,
            "window_rolls": 0,
            "horizon_refreshes": 0,
            "fused_entries": 0,
            "span_checks": 0,
        }

    # ------------------------------------------------------------------

    def drive(
        self,
        cores: List[TraceCore],
        traces: List[ColumnarTrace],
        memory: MemorySystem,
    ) -> None:
        """Heap-schedule cores, fusing whenever any bank allows it.

        The fused loop runs while at least one bank's mitigation
        declares batchability (a positive horizon or positive slack for
        the per-row rescue); banks that cannot batch are serviced
        scoped inside it. When *no* bank can batch — Hydra cells, or a
        run whose horizons all died — accesses are serviced on the
        scalar step *until the next refresh-window roll*: window ends
        reset tracker state (and with it the horizons), so fused
        eligibility is re-evaluated there instead of being forfeited
        for the rest of the run.
        """
        self.counters = {key: 0 for key in self.counters}
        decoded = decode_traces(cores, traces, memory)
        heap = [(0.0, core_id) for core_id in range(len(cores))]
        heapq.heapify(heap)
        positions = [0] * len(cores)
        mitigations = memory.mitigations
        while heap:
            if any(
                m.batch_horizon() > 0 or m.batch_slack() > 0
                for m in mitigations
            ):
                self.counters["fused_entries"] += 1
                self._fused_loop(cores, decoded, memory, heap, positions)
            else:
                self.counters["scalar_accesses"] += scalar_stretch(
                    cores, decoded, memory, heap, positions
                )

    # ------------------------------------------------------------------

    def _fused_loop(
        self,
        cores: List[TraceCore],
        decoded: List[_DecodedTrace],
        memory: MemorySystem,
        heap: list,
        positions: List[int],
    ) -> None:
        """Service accesses with all simulated state hoisted to arrays.

        State lives in parallel lists indexed by flat bank number,
        channel, or core id; the simulated objects are consulted only
        around full-path excursions — a *scoped* one (a single gated
        access: its bank is written back, serviced through
        ``MemorySystem``, and re-hoisted with fresh horizon state) or a
        global one (refresh-window rolls). On return — every bank's
        batchability exhausted, or every trace consumed — all object
        state is synchronized and ``heap``/``positions`` describe
        exactly where the driver must resume.
        """
        counters = self.counters
        timing = memory.config.timing
        t_rc = timing.t_rc
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_cas = timing.t_cas
        t_bl = timing.t_bl
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        refresh_window = timing.refresh_window
        open_policy = memory.policy is PagePolicy.OPEN
        llc_latency = memory.config.llc_latency_ns

        banks = memory._banks
        mitigations = memory.mitigations
        num_banks = len(banks)
        queues = memory.write_queues
        num_channels = len(queues)
        qlists = [queue._queue for queue in queues]
        capacity = [queue.capacity for queue in queues]
        high_wm = [queue.high_watermark for queue in queues]
        low_wm = [queue.low_watermark for queue in queues]

        # Hoisted per-bank state (parallel to `banks`).
        busy = [0.0] * num_banks
        last_act = [0.0] * num_banks
        open_rows: List[Optional[int]] = [None] * num_banks
        total_acc = [0] * num_banks
        row_hits = [0] * num_banks
        lifetime = [0] * num_banks
        stats_objs = [bank.stats for bank in banks]
        stat_counts = [stats._counts for stats in stats_objs]
        stats_wi = [0] * num_banks
        trackers = [m.tracker for m in mitigations]
        observed: List[list] = [[] for _ in range(num_banks)]
        # Batching-contract state, per bank. `rmaps` and `pinned` are
        # *live* views (mutated in place only by full-path calls);
        # horizon/slack/quiet are values, recomputed at every re-hoist;
        # `safe` caches remaining per-row headrooms within the current
        # span (valid because tracker state is frozen between commits).
        horizon_fns = [m.batch_horizon for m in mitigations]
        headroom_fns = [m.row_headroom for m in mitigations]
        slack_fns = [m.batch_slack for m in mitigations]
        quiet_fns = [m.batch_quiet_until for m in mitigations]
        mit_stats = [m.stats for m in mitigations]
        rmaps = [m.resolve_map() for m in mitigations]
        pinned = [m.batch_pinned_view() for m in mitigations]
        h_left = [0] * num_banks
        slack = [0] * num_banks
        quiet = [0.0] * num_banks
        safe: List[dict] = [{} for _ in range(num_banks)]
        rescue = [False] * num_banks
        act_mark = [0] * num_banks
        # Hoisted per-channel / per-core state.
        bus = [0.0] * num_channels
        qlen = [0] * num_channels
        clocks = [core.clock_ns for core in cores]
        instrs = [core.instructions for core in cores]
        mreads = [core.memory_reads for core in cores]
        mwrites = [core.memory_writes for core in cores]
        pends = [core._pending for core in cores]
        rob = cores[0].config.rob_size
        max_outstanding = cores[0].max_outstanding
        # Hoisted MemorySystem pin-hit counter and window mirror.
        llc_delta = 0
        next_window = memory._next_window_end

        def activity(b: int) -> int:
            """Mitigation-event count of bank ``b`` (span-crossing check)."""
            s = mit_stats[b]
            return (
                s.swaps + s.reswaps + s.unswaps + s.place_backs
                + s.pins + s.counter_accesses
            )

        def hoist() -> None:
            """Copy bank/bus/queue/window state into the hoisted arrays."""
            nonlocal next_window
            for b in range(num_banks):
                bank = banks[b]
                busy[b] = bank.busy_until
                last_act[b] = bank.last_act_time
                open_rows[b] = bank.open_row
                total_acc[b] = bank.total_accesses
                row_hits[b] = bank.row_hits
                lifetime[b] = stats_objs[b].lifetime_activations
                stats_wi[b] = stats_objs[b].window_index
                h_left[b] = horizon_fns[b]()
                slack[b] = slack_fns[b]()
                quiet[b] = quiet_fns[b]()
                safe[b].clear()
                rescue[b] = False
                act_mark[b] = activity(b)
            for c in range(num_channels):
                bus[c] = memory._bus_free[c]
                qlen[c] = len(queues[c])
            next_window = memory._next_window_end

        def flush_bank(b: int) -> None:
            """Commit bank ``b``'s deferred observations, in order.

            The assertion is the engine's structural proof that no
            fused span crossed a mitigation event: every swap, unswap,
            place-back, pin, or counter access happens on the full path
            behind a sync/re-hoist pair, so the event count recorded at
            the last re-hoist must still be current when the span's
            activations are committed.
            """
            rows = observed[b]
            if rows:
                counters["span_checks"] += 1
                assert act_mark[b] == activity(b), (
                    f"fused span crossed a mitigation event on bank {b}"
                )
                tracker = trackers[b]
                triggers_before = tracker.triggers
                mitigations[b].observe_batch(rows)
                assert tracker.triggers == triggers_before, (
                    f"deferred observation triggered on bank {b}: the "
                    "admission gate over-ran a horizon/headroom bound"
                )
                observed[b] = []

        def sync_bank(b: int) -> None:
            """Write bank ``b``'s hoisted state back into its objects."""
            flush_bank(b)
            bank = banks[b]
            bank.busy_until = busy[b]
            bank.last_act_time = last_act[b]
            bank.open_row = open_rows[b]
            bank.total_accesses = total_acc[b]
            bank.row_hits = row_hits[b]
            stats_objs[b].lifetime_activations = lifetime[b]

        def rehoist_bank(b: int) -> None:
            """Re-hoist bank ``b`` after a scoped full-path excursion.

            Horizon, slack, and quiet values are recomputed *here*,
            after every scoped access — never carried across a span cut
            — so a tracker reset or swap inside the excursion can never
            leave a stale horizon admitting accesses it no longer
            covers (the regression test for this lives in
            ``tests/test_engine_equivalence.py``).
            """
            bank = banks[b]
            busy[b] = bank.busy_until
            last_act[b] = bank.last_act_time
            open_rows[b] = bank.open_row
            total_acc[b] = bank.total_accesses
            row_hits[b] = bank.row_hits
            lifetime[b] = stats_objs[b].lifetime_activations
            stats_wi[b] = stats_objs[b].window_index
            h_left[b] = horizon_fns[b]()
            slack[b] = slack_fns[b]()
            quiet[b] = quiet_fns[b]()
            safe[b].clear()
            rescue[b] = False
            act_mark[b] = activity(b)
            counters["horizon_refreshes"] += 1

        def sync_banks() -> None:
            """Write all hoisted bank/bus/counter state back."""
            nonlocal llc_delta
            for b in range(num_banks):
                sync_bank(b)
            for c in range(num_channels):
                memory._bus_free[c] = bus[c]
            memory.llc_hits_from_pins += llc_delta
            llc_delta = 0

        def sync_core(core_id: int) -> None:
            """Write one core's hoisted counters back into the object."""
            core = cores[core_id]
            core.clock_ns = clocks[core_id]
            core.instructions = instrs[core_id]
            core.memory_reads = mreads[core_id]
            core.memory_writes = mwrites[core_id]

        def all_dead() -> bool:
            """No bank can admit another fused ACT: hand back to the driver."""
            for b in range(num_banks):
                if h_left[b] > 0 or slack[b] > 0:
                    return False
            return True

        def admit_act(b: int, row: int, finish: float) -> bool:
            """Gate one fused ACT on bank ``b``: tick quiet at the bank
            finish time, then charge the bank-wide horizon or — once it
            is exhausted — the row's cached headroom under the slack
            budget.

            The moment the horizon exhausts, the bank switches to
            *rescue mode* for the rest of the span: its deferred
            observations are committed once (``observe_batch`` plus a
            slack recompute — tracker state only, the hoisted timing
            state stays live) and every further ACT is charged to its
            row's cached headroom. The one-time commit keeps the two
            budgets sound against each other: per-row headrooms are
            only ever computed and cached against fully-committed
            tracker state, so horizon-admitted activations of a row can
            never be missing from its headroom accounting. The horizon
            stays retired until the next re-hoist — with a hot row
            parked just below threshold a recomputed horizon would be
            worth only an ACT or two, re-entering the commit on almost
            every ACT, while one commit per span amortizes to nothing.
            Every admitted ACT is a deferred observation, so it always
            consumes one unit of slack; headroom admissions after the
            commit decrement their cache entry, so each row's committed
            count plus pending observations stays below threshold.
            """
            if finish >= quiet[b]:
                return False
            if h_left[b] > 0:
                h_left[b] -= 1
                slack[b] -= 1
                return True
            if not rescue[b]:
                rescue[b] = True
                if observed[b]:
                    flush_bank(b)
                    slack[b] = slack_fns[b]()
                    safe[b].clear()
                    counters["horizon_refreshes"] += 1
            sl = slack[b]
            if sl > 0:
                safe_b = safe[b]
                headroom = safe_b.get(row)
                if headroom is None:
                    headroom = headroom_fns[b](row)
                if headroom > 0:
                    safe_b[row] = headroom - 1
                    slack[b] = sl - 1
                    return True
            return False

        def fused_drain(ch: int, clock: float) -> None:
            """Drain channel ``ch``'s write queue against hoisted state.

            Replays each buffered write through the same service/
            transfer/observe arithmetic as ``MemorySystem._drain_writes``
            (drained writes skip refresh alignment, as there). Each
            activating write passes the same per-ACT gate as a demand
            read; a write that fails it is serviced scoped through
            ``MemorySystem._service`` — exactly the scalar drain's
            issue closure — between a bank write-back and re-hoist.
            """
            counters["drains"] += 1
            qlist = qlists[ch]
            target = low_wm[ch]
            while len(qlist) > target:
                pending_write = qlist.pop(0)
                b = pending_write.bank_index
                row = pending_write.row
                start = pending_write.arrival
                if clock > start:
                    start = clock
                rmap = rmaps[b]
                physical = rmap.get(row, row) if rmap is not None else row
                open_row = open_rows[b]
                if open_policy and open_row == physical:
                    # Row-hit arm: no ACT, no observe, no gate needed.
                    total_acc[b] += 1
                    row_hits[b] += 1
                    held = busy[b]
                    if held > start:
                        start = held
                    finish = start + t_cas + t_bl
                    busy[b] = finish
                else:
                    # ACT arm: pure timing first, gate, then commit.
                    s = start
                    held = busy[b]
                    if held > s:
                        s = held
                    earliest = last_act[b] + t_rc
                    if earliest > s:
                        s = earliest
                    if open_row is not None:
                        s += t_rp
                    finish = s + t_rcd + t_cas + t_bl
                    if not admit_act(b, row, finish):
                        sync_bank(b)
                        memory._bus_free[ch] = bus[ch]
                        memory._service(
                            ch, b, mitigations[b], start, row, is_write=True
                        )
                        bus[ch] = memory._bus_free[ch]
                        rehoist_bank(b)
                        counters["scoped_accesses"] += 1
                        continue
                    total_acc[b] += 1
                    last_act[b] = s
                    window = s // refresh_window
                    if window > stats_wi[b]:
                        window = int(window)
                        stats_objs[b]._roll_to(window)
                        stats_wi[b] = window
                    stat_counts[b][physical] += 1
                    lifetime[b] += 1
                    if open_policy:
                        open_rows[b] = physical
                        busy[b] = finish
                    else:
                        open_rows[b] = None
                        closed = s + t_rc
                        busy[b] = finish if finish > closed else closed
                    if trackers[b] is not None:
                        observed[b].append(row)
                held = bus[ch]
                bus[ch] = (finish if finish > held else held) + t_bl
            qlen[ch] = len(qlist)

        hoist()
        fast = 0
        while heap:
            _, core_id = heapq.heappop(heap)
            pos = positions[core_id]
            dec = decoded[core_id]
            length = dec.length
            if pos >= length:
                continue
            gaps = dec.gaps
            deltas = dec.deltas
            is_write = dec.is_write
            channels = dec.channel
            bank_indices = dec.bank_index
            rows_l = dec.row
            clock = clocks[core_id]
            instr = instrs[core_id]
            pending = pends[core_id]
            while True:
                # --- TraceCore.advance_gap, inlined -------------------
                instr += gaps[pos] + 1
                clock += deltas[pos]
                while pending and (
                    pending[0][0] <= instr - rob
                    or len(pending) >= max_outstanding
                ):
                    _, completion = pending.popleft()
                    if completion > clock:
                        clock = completion
                write = is_write[pos]
                ch = channels[pos]
                if clock >= next_window:
                    # Refresh-window boundary: write everything back and
                    # service this access through the full MemorySystem
                    # path (which rolls the window, resetting trackers
                    # and epoch state), then re-hoist the world.
                    clocks[core_id] = clock
                    instrs[core_id] = instr
                    sync_core(core_id)
                    sync_banks()
                    counters["window_rolls"] += 1
                    core = cores[core_id]
                    if write:
                        memory._write(clock, ch, bank_indices[pos], rows_l[pos])
                        core.issue_write()
                    else:
                        core.issue_read(
                            memory._read(
                                clock, ch, bank_indices[pos], rows_l[pos]
                            )[1]
                        )
                    counters["scalar_accesses"] += 1
                    pos += 1
                    positions[core_id] = pos
                    clock = clocks[core_id] = core.clock_ns
                    mreads[core_id] = core.memory_reads
                    mwrites[core_id] = core.memory_writes
                    hoist()
                    if pos < length:
                        heapq.heappush(heap, (clock, core_id))
                    if all_dead():
                        # Hand over to the driver (scalar until the
                        # next window roll). Banks and counters were
                        # synced above, but every *other* core's
                        # hoisted clock/instruction state is still only
                        # in the mirror arrays — write it all back
                        # before handing over.
                        for other in range(len(cores)):
                            sync_core(other)
                        counters["fast_accesses"] += fast
                        return
                    break
                b = bank_indices[pos]
                row = rows_l[pos]
                if write:
                    # --- MemorySystem.write fast path -----------------
                    pin_view = pinned[b]
                    if pin_view is not None and row in pin_view:
                        # Pin filter: the write is absorbed by the LLC
                        # (no enqueue). Writes never tick, so no quiet
                        # gate applies.
                        llc_delta += 1
                        mwrites[core_id] += 1
                        counters["pinned_fast_hits"] += 1
                        fast += 1
                    else:
                        if qlen[ch] >= capacity[ch]:
                            fused_drain(ch, clock)
                        # WriteQueue.enqueue, inlined (the queue cannot
                        # be full here: the drain above just emptied it).
                        qlists[ch].append(
                            PendingWrite(arrival=clock, bank_index=b, row=row)
                        )
                        qlen[ch] += 1
                        mwrites[core_id] += 1
                        fast += 1
                else:
                    # --- MemorySystem.read fast path ------------------
                    # Reads tick at issue time (before the pin filter),
                    # so any read at or past the quiet instant goes
                    # scoped — the tick's background work must run
                    # exactly where the scalar engine runs it.
                    scoped = clock >= quiet[b]
                    if not scoped:
                        pin_view = pinned[b]
                        if pin_view is not None and row in pin_view:
                            # Pin filter: served from the LLC — no bank,
                            # no bus, no ACT, no drain trigger.
                            llc_delta += 1
                            completion = clock + llc_latency
                            mreads[core_id] += 1
                            pending.append((instr, completion))
                            counters["pinned_fast_hits"] += 1
                            fast += 1
                        else:
                            if qlen[ch] >= high_wm[ch]:
                                fused_drain(ch, clock)
                            # Rank refresh alignment, as in
                            # MemorySystem._read.
                            start = clock
                            if start % t_refi < t_rfc:
                                start = int(start // t_refi) * t_refi + t_rfc
                            rmap = rmaps[b]
                            physical = (
                                rmap.get(row, row) if rmap is not None else row
                            )
                            open_row = open_rows[b]
                            if open_policy and open_row == physical:
                                # Bank.access, OPEN row-hit arm (no ACT).
                                total_acc[b] += 1
                                row_hits[b] += 1
                                held = busy[b]
                                if held > start:
                                    start = held
                                finish = start + t_cas + t_bl
                                busy[b] = finish
                                held = bus[ch]
                                completion = (
                                    finish if finish > held else held
                                ) + t_bl
                                bus[ch] = completion
                                mreads[core_id] += 1
                                pending.append((instr, completion))
                                fast += 1
                            else:
                                # Bank.access, ACT arm: pure timing
                                # first, gate the observe at the bank
                                # finish, then commit.
                                s = start
                                held = busy[b]
                                if held > s:
                                    s = held
                                earliest = last_act[b] + t_rc
                                if earliest > s:
                                    s = earliest
                                if open_row is not None:
                                    s += t_rp
                                finish = s + t_rcd + t_cas + t_bl
                                if admit_act(b, row, finish):
                                    total_acc[b] += 1
                                    last_act[b] = s
                                    # ActivationStats.record, inlined
                                    # (the float floor compares exactly
                                    # against the int mirror).
                                    window = s // refresh_window
                                    if window > stats_wi[b]:
                                        window = int(window)
                                        stats_objs[b]._roll_to(window)
                                        stats_wi[b] = window
                                    stat_counts[b][physical] += 1
                                    lifetime[b] += 1
                                    if open_policy:
                                        open_rows[b] = physical
                                        busy[b] = finish
                                    else:
                                        open_rows[b] = None
                                        closed = s + t_rc
                                        busy[b] = (
                                            finish if finish > closed
                                            else closed
                                        )
                                    held = bus[ch]
                                    completion = (
                                        finish if finish > held else held
                                    ) + t_bl
                                    bus[ch] = completion
                                    if trackers[b] is not None:
                                        observed[b].append(row)
                                    mreads[core_id] += 1
                                    pending.append((instr, completion))
                                    fast += 1
                                else:
                                    scoped = True
                    if scoped:
                        # Scoped full-path read: this one access may
                        # tick, trigger, swap, or pin. Usually only its
                        # bank is written back and re-hoisted; the rest
                        # of the hoisted world stays live. One widening
                        # case: a quiet-gated read reaches here without
                        # the fused drain above having run, and if the
                        # queue sits at its watermark the full path
                        # *will* drain — touching arbitrary banks — so
                        # the whole world must be synced around it
                        # (rare: a drain coinciding with a span cut).
                        if qlen[ch] >= high_wm[ch]:
                            sync_banks()
                            completion = memory._read(clock, ch, b, row)[1]
                            hoist()
                        else:
                            sync_bank(b)
                            memory._bus_free[ch] = bus[ch]
                            completion = memory._read(clock, ch, b, row)[1]
                            bus[ch] = memory._bus_free[ch]
                            qlen[ch] = len(qlists[ch])
                            rehoist_bank(b)
                        counters["scoped_accesses"] += 1
                        counters["scalar_accesses"] += 1
                        mreads[core_id] += 1
                        pending.append((instr, completion))
                        if all_dead():
                            pos += 1
                            positions[core_id] = pos
                            clocks[core_id] = clock
                            instrs[core_id] = instr
                            if pos < length:
                                heapq.heappush(heap, (clock, core_id))
                            for other in range(len(cores)):
                                sync_core(other)
                            sync_banks()
                            counters["fast_accesses"] += fast
                            return
                pos += 1
                if pos >= length:
                    positions[core_id] = pos
                    clocks[core_id] = clock
                    instrs[core_id] = instr
                    break
                if heap:
                    head = heap[0]
                    head_clock = head[0]
                    if clock > head_clock or (
                        clock == head_clock and core_id > head[1]
                    ):
                        positions[core_id] = pos
                        clocks[core_id] = clock
                        instrs[core_id] = instr
                        heapq.heappush(heap, (clock, core_id))
                        break
        # Every trace consumed inside the fused loop: one final
        # write-back so the driver's drain/finalize stages (and the
        # no-op scalar loop after us) see the true state.
        counters["fast_accesses"] += fast
        for core_id in range(len(cores)):
            sync_core(core_id)
        sync_banks()
