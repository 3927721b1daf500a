(** Integer linear programming by branch & bound over {!Simplex}.

    Exact rational relaxations plus integral branching give sound, optimal
    ILP solutions for the model sizes the contention analysis produces
    (tens of variables). *)

open Numeric

exception Node_limit_exceeded

type parallel = { degree : int; spawn : (unit -> unit) -> unit }
(** How a solve may fan subtree exploration out across domains. [spawn]
    fires a fire-and-forget helper thunk onto some executor (in
    practice {!Runtime.Pool.spawn_raw}); [degree] bounds how many
    helpers one solve spawns (a pool passes its [jobs]). Helpers only
    {e claim} subtrees — they never block — and the spawner merges
    speculative results in sequential order, so the returned solution,
    node counts, pivot totals, certificates and every jobs-invariant
    metric are byte-identical whether or not [parallel] is supplied
    (pinned by a qcheck property). lib/ilp does not depend on the
    runtime; callers inject the executor through this record. *)

val default_frontier : int
(** Default frontier width (32): the sequential expansion stops once
    this many unexplored subtree roots are on the stack. *)

val solve :
  ?node_limit:int -> ?slack:Q.t -> ?presolve:bool ->
  ?root:Presolve.outcome -> ?parallel:parallel -> ?frontier:int ->
  Model.t -> Solution.t
(** Solves the model enforcing integrality of its integer variables.
    [node_limit] (default [200_000]) bounds the number of explored
    branch-and-bound nodes.

    The search is warm-started: each child node copies its parent's
    optimal basis, tightens the one bound its branch moves and
    re-optimises with dual-simplex pivots ({!Simplex.ENGINE.tighten};
    a presolving search installs the whole presolved box instead). The
    node's objective, branching variable and rounding heuristic are
    evaluated in the engine's scalar ({!Simplex.ENGINE.objective} and
    friends); values are converted to [Q] only for incumbents, branch
    pivots and the returned solution. The search runs on the
    machine-word fast tier first and deterministically restarts on the
    exact (then dense) tier on overflow (in a pivot or in a node's
    bookkeeping) or stall, so the result never depends on which tier
    finished.

    [root], when given, is used as the root node's presolve outcome
    instead of running {!Presolve.tighten} there. It must equal what the
    root tightening would produce; passing anything else voids the
    optimality guarantee.

    [slack] (default 0 — exact) relaxes pruning: nodes that cannot improve
    on the incumbent by more than [slack] are abandoned, so the returned
    objective is within [slack] of the true optimum. A caller that needs a
    sound {e upper} bound on a maximisation must add [slack] to the
    returned objective. Useful when the relaxation has wide near-optimal
    plateaus (the Scenario-2 contention ILPs).

    [presolve] (default [true]) runs {!Presolve.tighten} at every node:
    exact bound propagation that skips simplex on detectably-infeasible
    boxes. It changes the node count, so under [node_limit] it can
    change whether the search finishes; {!Runtime.Solve_cache} solves
    with [~presolve:false], the discipline of {!solve_certified}.

    [parallel], when given, lets the search explore frontier subtrees on
    helper domains; [frontier] (default {!default_frontier}) is the cut
    width. Neither affects the result, the node count, or any
    jobs-invariant metric — the search expands depth-first to [frontier]
    subtree roots, mines them speculatively against a claim-time
    incumbent snapshot, and commits (or replays) each subtree in
    sequential order — they only change which domain does the work.
    @raise Invalid_argument on negative [slack] or [frontier < 1].
    @raise Node_limit_exceeded if the search does not finish in the
    budget — a safety net; the paper's instances take a handful of nodes. *)

val solve_certified :
  ?node_limit:int -> ?slack:Q.t -> ?parallel:parallel -> ?frontier:int ->
  Model.t -> Solution.t * Cert.t option
(** {!solve}, additionally emitting a search-tree certificate that
    {!Audit.Checker} (an independent exact checker) can replay against
    the model. The certified search disables presolve so that node boxes
    are derivable from the declared bounds plus the branching path; it
    makes exactly the decisions of [solve ~node_limit ~slack
    ~presolve:false] — same answer, node count and [Node_limit_exceeded]
    behaviour — on every tier, the uncertified dense fallback included.
    With presolve the node count differs, so under [node_limit] one
    search may finish where the other gives up (on one
    ILP-PTAC instance at [slack = 16]: 373 nodes presolved, 1 011
    without). The certificate is [None] only when the search fell
    through to the dense tier, which cannot certify.
    @raise Invalid_argument on negative [slack].
    @raise Node_limit_exceeded as {!solve}. *)

val solve_lp_relaxation : Model.t -> Solution.t
(** The continuous relaxation (same as {!Simplex.solve}); exposed for
    tightness comparisons. *)
