(** A simulated TriCore master: executes a {!Program}, drives caches and
    the SRI, and maintains the debug counters of {!Platform.Counters}.

    Timing model (one [step] = one cycle):
    - an instruction whose fetch and data access stay core-local costs its
      execution cycles only ([Compute n] = n cycles, memory ops 1 cycle);
    - an instruction-cache miss or non-cacheable SRI fetch blocks the core
      until the SRI transaction completes, accruing PMEM_STALL;
    - a data-cache miss / non-cacheable SRI data access likewise accrues
      DMEM_STALL; a dirty victim first issues its write-back (folded into a
      single long transaction when both victim and fill live in the LMU).

    Stall accounting: a transaction observed end-to-end for [d] cycles adds
    [d - (lmin - cs)] stall cycles, where [lmin] and [cs] are the Table 2
    constants for its (target, op). In the best (streaming) case [d = lmin]
    and the contribution is exactly [cs] — the calibration floor the
    MBTA access bounds (Eq. 4) rely on; queueing delay is exposed in full. *)

type kind = P16 | E16  (** TC1.6P (I$ + D$) or TC1.6E (I$ only, no D$) *)

type config = {
  kind : kind;
  icache : Cache.geometry option;  (** [None] disables the I-cache *)
  dcache : Cache.geometry option;  (** ignored for {!E16} *)
}

val p16_config : config
val e16_config : config

type t

val create : config -> sri:Sri.t -> core_id:int -> Program.t -> t
(** A core at the start of [program], with cold private caches. Each
    instruction of the program text is classified (scratchpad, cached or
    uncached SRI target) once here; the event path then allocates
    nothing. *)

val step : t -> cycle:int -> unit
val finished : t -> bool

val wake : t -> int
(** Next cycle at which stepping this core does more than increment CCNT:
    the cycle after a busy burst drains, a granted transaction's
    completion cycle, or the next cycle for a core about to begin an
    instruction. [max_int] when finished or blocked on a not-yet-granted
    transaction (the grant is an SRI event; the wake becomes finite once
    it fires). *)

val advance : t -> cycle:int -> unit
(** Jump the core to [cycle] (at most [wake t]): batches the CCNT of the
    silently skipped cycles, then performs the regular [step] at [cycle].
    Equivalent to stepping every cycle in between — skipped cycles are
    exactly those where [step] only counts.
    @raise Invalid_argument if [cycle] is not ahead of the last step. *)

val settle : t -> cycle:int -> unit
(** Account the idle cycles up to and including [cycle] without waking the
    core — used for contenders when the analysis task finishes strictly
    between their events. No-op when already synced or finished. *)

val finish_cycle : t -> int
(** Cycle at which the program completed.
    @raise Failure if not yet finished. *)

val counters : t -> Platform.Counters.t
val restart : t -> unit
(** Rewind the program to its beginning, keeping caches warm and counters
    accumulating — how a periodic co-runner keeps the load up. *)

val restarts : t -> int
val core_id : t -> int
