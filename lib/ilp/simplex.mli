(** Exact simplex over rationals, with warm-started re-solves.

    Solves the continuous relaxation of a {!Model.t} (integrality markers
    are ignored). All arithmetic is exact and every pivoting rule is
    least-index (Bland), so results are sound, termination is guaranteed
    and pivot totals are deterministic — the properties the WCET analysis
    needs from its solver.

    The solver is a bounded-variable simplex: variable bounds are kept
    implicit (nonbasic-at-lower/upper statuses, bound flips) rather than
    rewritten into extra rows, primal feasibility is established by a
    dual-simplex repair of the always-dual-feasible all-slack basis (no
    artificial variables), and a solved tableau can be kept as a
    warm-start state that re-optimises with a few dual pivots after
    bound tightenings — the {!Branch_bound} workload.

    Three tiers run the same algorithm: machine-word rationals
    ({!Numeric.Fastq}, any overflow raises and the solve falls back),
    exact bignum rationals, and — purely as a defensive fallback behind a
    pivot budget — the original dense two-phase primal simplex. *)

open Numeric

exception Stalled
(** Raised when a solve exceeds its defensive pivot budget. Bland's rule
    terminates, so this firing indicates a solver bug; callers treat it
    as "fall back to a slower tier", never as an answer. *)

(** A solver tier exposing warm starts. *)
module type ENGINE = sig
  type state

  val root :
    Model.t -> lb:Q.t option array -> ub:Q.t option array ->
    state option * Solution.t
  (** Cold solve under the given box (arrays of length
      [Model.num_vars]; they override the model's declared bounds). A
      state is returned exactly when the solution is [Optimal]; it sits
      at the optimal basis and seeds {!branch}/{!resolve}.
      @raise Invalid_argument on a bound-array length mismatch. *)

  val root_certified :
    Model.t -> lb:Q.t option array -> ub:Q.t option array ->
    state option * Solution.t * Cert.lp_cert option
  (** {!root} plus the certificate for the answer (see {!Cert.lp_cert}).
      The dense tier returns [None] — it cannot certify. *)

  val branch : state -> state
  (** Deep copy. Branch & bound's tree discipline is copy-on-branch:
      children pivot on their own copy, so the parent state can seed
      every sibling. *)

  val resolve : state -> lb:Q.t option array -> ub:Q.t option array -> bool
  (** Dual-simplex re-solve (in place) under a new box, which must be
      contained in the box the state was last solved under — exactly
      what branching and presolve produce: [true] when the state now
      sits at an optimal basis, [false] when the box is infeasible (warm
      re-solves never end [Unbounded]). After [false] the state must
      only be asked for its {!certificate}. May raise
      {!Numeric.Fastq.Overflow} on the fast tier and {!Stalled} on any
      tier. *)

  val tighten : state -> Model.var -> lower:bool -> Q.t -> bool
  (** [tighten st v ~lower b] is {!resolve} under the state's own box
      with [v]'s lower (or upper) bound replaced by [b], which must be at
      least as tight as the current one. Only [v]'s bound is converted
      and only [v]'s column re-anchored, instead of re-installing the
      whole box — the branch & bound step. *)

  val certificate : state -> Cert.lp_cert option
  (** The certificate of the state's last solve, read out on demand: an
      [Optimal_cert] after an optimal one, a [Farkas_box] or
      [Farkas_ray] after an infeasible {!resolve}/{!tighten}. The dense
      tier returns [None]. *)

  (** {2 Node bookkeeping}

      Questions branch & bound asks of an optimal state, answered in the
      engine's own scalar; only the answers are converted to [Q]. Each
      equals the answer computed over [Q] from {!values}. On the fast
      tier they may raise {!Numeric.Fastq.Overflow} like a pivot does,
      and the search then restarts on the exact tier. *)

  val objective : state -> Q.t
  (** The objective at the state's point. *)

  val values : state -> Q.t array
  (** The state's point, one value per model variable. *)

  val most_fractional : state -> (Model.var * Q.t) option
  (** The integer variable to branch on and the floor of its value:
      among integer variables with a non-zero objective coefficient (all
      integer variables when none is fractional), the one whose
      fractional part is closest to 1/2, the lowest index on ties.
      [None] when the point is integral. *)

  val floor_incumbent :
    state -> beats:(Q.t -> bool) -> (Q.t * Q.t array) option
  (** Floors the point's integer variables; [Some (objective, point)]
      when the floored point satisfies the model's declared bounds,
      integrality and constraints ({!feasible}) and [beats] holds of
      its objective. *)

  val feasible : Model.t -> Q.t array -> bool
  (** [feasible m x] is the check {!floor_incumbent} applies, in the
      engine's scalar and without building messages: it holds exactly
      when [Model.check_feasible m] accepts [x] (one value per
      variable). Converts the model on every call. May raise
      {!Numeric.Fastq.Overflow} on the fast tier. *)
end

module Fast_engine : ENGINE
module Exact_engine : ENGINE

val fast : (module ENGINE)
(** {!Numeric.Fastq} machine-word arithmetic; raises
    {!Numeric.Fastq.Overflow} whenever a value leaves the representable
    range, so speed never costs correctness. *)

val exact : (module ENGINE)
(** Bignum {!Q} arithmetic; never overflows. *)

val dense : (module ENGINE)
(** The original dense two-phase primal simplex behind the same
    interface. Its state is only the box and the last optimal point, so
    every re-solve is a cold solve under the new box — the
    pre-warm-start behaviour, kept as the fallback of last resort. *)

val dense_solve_with_bounds :
  Model.t -> lb:Q.t option array -> ub:Q.t option array -> Solution.t
(** Direct entry to the dense fallback (exposed for differential
    testing). *)

val solve : Model.t -> Solution.t
(** Solve with the bounds declared in the model, trying the fast tier
    first and falling back on overflow or stall. *)

val solve_with_bounds :
  Model.t -> lb:Q.t option array -> ub:Q.t option array -> Solution.t
(** Solve with overriding variable bounds (used by {!Branch_bound}); the
    arrays must have length [Model.num_vars]. The model's declared bounds
    are ignored in favour of the arrays.
    @raise Invalid_argument on a length mismatch. *)

val solve_certified : Model.t -> Solution.t * Cert.lp_cert option
(** {!solve} plus the certificate for the answer. [None] only when the
    solve fell through to the dense tier (counted by the checker as
    [audit.skipped]). *)

val solve_with_bounds_certified :
  Model.t -> lb:Q.t option array -> ub:Q.t option array ->
  Solution.t * Cert.lp_cert option
(** {!solve_with_bounds} plus the certificate. *)
