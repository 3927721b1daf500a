(** The Shared Resource Interconnect (SRI) crossbar.

    Each slave interface (dfl, pf0, pf1, lmu) arbitrates independently:
    transactions to distinct targets proceed in parallel; same-target
    requests are serialised by priority class and, within a class, by
    round-robin over the masters — so in the paper's same-class setting a
    request waits for at most one in-flight request per contending master
    (Section 2). Arbitration is non-preemptive: a higher-priority request
    still waits for the transaction in service.

    Service time: a transaction occupies its target for [lmax(t,o)]
    cycles, or [lmin(t,o)] when it streams from the flash interface's
    256-bit prefetch line buffer (same or sequential-next line), or the
    LMU dirty-miss latency when a cacheable LMU fill carries a folded
    dirty write-back. The constants come from the {!Platform.Latency}
    table, so the simulator and the analytical models share one timing
    source. *)

open Platform

type t

val create :
  ?latency:Latency.t ->
  ?priorities:int array ->
  ?trace:bool ->
  ncores:int ->
  unit ->
  t
(** [priorities] maps each master to its SRI priority class — {e lower is
    more urgent}; default: all masters in one class (the paper's
    configuration). [trace] records every transaction (default off).
    @raise Invalid_argument on a priority array length mismatch. *)

val request :
  t ->
  core:int ->
  target:Target.t ->
  op:Op.t ->
  addr:int ->
  folded_dirty_writeback:bool ->
  cycle:int ->
  unit
(** Enqueues a transaction in the core's transaction slot; it may be
    granted within the same cycle if the target is idle. A core has at
    most one outstanding transaction: the slot is reused by its next
    request. [folded_dirty_writeback] marks a cacheable LMU fill whose
    victim write-back is folded into the same transaction (the bracketed
    21-cycle latency of Table 2).
    @raise Invalid_argument on an inadmissible (target, op) pair, a bad
    core id, or a core whose previous request is still queued. *)

val done_at : t -> core:int -> int
(** Completion cycle of the core's last transaction; [max_int] until it
    is granted. *)

val stall : t -> core:int -> int
(** Stall cycles the core's completed last transaction contributes to
    PMEM_STALL / DMEM_STALL: its observed end-to-end latency minus the
    pipelining/prefetch overlap [lmin - cs] the Table 2 constants encode,
    floored at 0 (see {!Core_model}). *)

val step : t -> cycle:int -> unit
(** Grants pending requests on every target that is idle at [cycle]. Call
    once per simulated cycle, before stepping the cores — or, under the
    event-driven kernel, once per event cycle (grants can only fire at
    cycles reported by {!next_grant_at} or at request time). *)

val next_grant_at : t -> int
(** Earliest cycle at which a queued request can be granted — the minimum
    [busy_until] over interfaces with a non-empty pending queue — or
    [max_int] when nothing is queued. A free interface never carries a
    queue between cycles (requests to an idle target are granted
    immediately by {!request}), so stepping the crossbar only at these
    cycles is observationally identical to stepping it every cycle. *)

val profile : t -> core:int -> Access_profile.t
(** Ground-truth per-target access counts served so far for a master. *)

val flush_metrics : t -> unit
(** Adds the service cycles, wait cycles and grants accumulated since the
    last flush to the [sri.<target>.busy_cycles], [.wait_cycles] and
    [.grants] metrics, then zeroes the local totals. Grants only
    accumulate locally, so the event path touches no shared counter;
    {!Machine.run} flushes once per run, also when the run raises. *)

val trace : t -> Trace.t
(** Recorded transactions in completion order; empty when tracing is
    disabled. *)
