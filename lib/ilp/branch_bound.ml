open Numeric

exception Node_limit_exceeded

(* Search observability (Obs.Metrics): totals are per-process and, with
   the single-flight solve cache, independent of the parallel degree —
   every distinct model is searched exactly once either way, and the
   subtree phase commits speculative metric deltas in sequential merge
   order (see below), so even intra-solve parallelism leaves the
   deterministic counters byte-identical at any [jobs]. *)
let m_solves = Obs.Metrics.counter "ilp.bb.solves"
let m_nodes = Obs.Metrics.counter "ilp.bb.nodes"
let m_pruned = Obs.Metrics.counter "ilp.bb.pruned"
let m_incumbents = Obs.Metrics.counter "ilp.bb.incumbents"
let m_node_limit = Obs.Metrics.counter "ilp.bb.node_limit_hits"
let m_warm = Obs.Metrics.counter "ilp.bb.warm_starts"
let m_restarts = Obs.Metrics.counter "ilp.bb.engine_restarts"
let m_max_depth = Obs.Metrics.gauge "ilp.bb.max_depth"

(* Jobs-invariant parallel-search counters: where the frontier cut falls
   and how many nodes sit below it depend only on the model and the
   [frontier] width, never on how many domains mined the subtrees. *)
let m_par_nodes = Obs.Metrics.counter "bnb.parallel_nodes"
let m_par_splits = Obs.Metrics.counter "bnb.parallel_splits"

(* Scheduling facts of one particular run: which domain claimed which
   subtree (and how many speculative runs were redone as sequential
   replays) is a race outcome, so these stay out of
   [Obs.Metrics.deterministic_snapshot]. *)
let m_subtrees = Obs.Metrics.counter ~timing:true "bnb.subtrees"
let m_subtree_steals = Obs.Metrics.counter ~timing:true "bnb.subtree_steals"

(* How a solve may fan its subtree work out: [spawn] fires a helper
   thunk onto some executor (in practice [Runtime.Pool.spawn_raw]) and
   [degree] bounds how many helpers are worth spawning. The record is
   dependency-inverted — lib/ilp does not know about the pool — and it
   never affects results, node counts or certificates: only which
   domain explores which subtree. *)
type parallel = { degree : int; spawn : (unit -> unit) -> unit }

let default_frontier = 32

(* Depth-first branch & bound, most-fractional branching, down-branch
   first (for the contention ILPs the optimum sits near the upper bounds,
   so the tightened side finds incumbents quickly).

   Warm starts: a branch only tightens variable bounds, which keeps the
   parent's optimal basis dual feasible, so each child node copies the
   parent's solver state ({!Simplex.ENGINE.branch}) and re-optimises with
   a few dual pivots instead of building and solving a tableau from
   scratch. The search runs on the machine-word fast tier first; an
   overflow or stall deterministically restarts the whole search on the
   next tier, so the result never depends on which tier finished.

   [slack] relaxes the pruning test: a node is abandoned when its
   relaxation cannot beat the incumbent by more than [slack]. The returned
   incumbent is therefore within [slack] of the true optimum — callers
   needing a sound upper (resp. lower) bound on a maximisation (resp.
   minimisation) must add [slack] back.

   {b Parallel determinism.} The search is one fixed algorithm at every
   parallel degree: an explicit-stack DFS whose pop order is exactly the
   recursive down-then-up order. The spawner expands the stack
   sequentially until it holds [frontier] unexplored nodes; the
   remaining stack, popped LIFO, lists subtree roots in sequential
   continuation order. Subtrees are then claimed off an atomic counter
   (by the spawner and any [parallel] helpers) and explored
   speculatively: each run snapshots a shared atomic incumbent objective
   at claim time (the only cross-subtree communication, used only for
   pruning), counts its own nodes against an optimistic budget, and
   buffers all metric updates in an [Obs.Metrics.capture] delta. The
   spawner then merges results in subtree order: a run whose snapshot
   equals the deterministic prefix incumbent made exactly the sequential
   decisions, so its delta/incumbent/certificate commit as-is; any other
   run (stale snapshot, or past the exact remaining node budget) is
   discarded and replayed inline at its sequential position. Either way
   the visit order, prune/incumbent/node/pivot totals, the returned
   solution and the certificate tree are those of the sequential DFS. *)

module type MODE = sig
  module E : Simplex.ENGINE

  type node
  (** What a fully explored node contributes to the caller: [unit] for
      the plain search, {!Cert.tree} for the certified one. *)

  val certified : bool
  (** Whether the root solve must produce its certificate. *)

  val presolve_leaf : node

  val leaf_infeasible : (unit -> Cert.lp_cert option) -> node
  (** An infeasible node, given how to read its certificate. *)

  val leaf_bounded : E.state -> node
  (** A pruned node or an integral leaf, given its optimal state. *)

  val branch_node : var:int -> pivot:Q.t -> down:node -> up:node -> node
  val presolve : bool
  val root : Presolve.outcome option
end

exception Unbounded_search of Cert.lp_cert option
exception Uncertified

module Search (M : MODE) = struct
  module E = M.E

  (* A node's box: in full at the root and whenever the search
     presolves (presolve reads and narrows the whole box), otherwise as
     the one bound its branch tightened in the parent's state. *)
  type box =
    | Box of Q.t option array * Q.t option array
    | Cut of int * bool * Q.t (* variable, lower?, new bound *)

  (* One unexplored node. [set] installs the node's contribution once
     its whole subtree is done; branch nodes install themselves when
     both children have (the join closures run only on the spawner or
     wholly inside one speculative run, never concurrently). *)
  type frame = {
    depth : int;
    parent : E.state option;
    box : box;
    set : M.node -> unit;
  }

  (* Incumbent store and node accounting, so the same [process] drives
     the sequential prefix (globals), a speculative subtree run (local
     incumbent seeded from the claim-time snapshot) and a replay. *)
  type env = {
    bound : unit -> Q.t option;
    record : Q.t -> Q.t array -> unit;
    count_node : int -> unit;
  }

  type sub_result = {
    snap : Q.t option;  (* shared incumbent objective at claim time *)
    sr_nodes : int;
    limit_hit : bool;  (* ran past the optimistic node budget *)
    local_best : (Q.t * Q.t array) option;
    delta : Obs.Metrics.delta;
    sub_node : M.node option;
    err : exn option;  (* deterministic abort (tier restart, unbounded) *)
  }

  let run ~node_limit ~slack ~parallel ~frontier model =
    let nv = Model.num_vars model in
    let dir, obj_expr = Model.objective model in
    (* When the objective takes integral values on every integer-feasible
       point, a node whose relaxation floors (resp. ceils) to the incumbent
       cannot contain a better solution — pruning on the rounded bound is
       exact and collapses fractional near-optimal plateaus. *)
    let objective_integral =
      Q.is_integer (Linexpr.constant obj_expr)
      && List.for_all
           (fun (v, c) -> Q.is_integer c && (Model.var_info model v).Model.integer)
           (Linexpr.terms obj_expr)
    in
    let effective_bound objective =
      if objective_integral then
        match dir with
        | Model.Maximize -> Q.floor objective
        | Model.Minimize -> Q.ceil objective
      else objective
    in
    let worth_exploring objective incumbent =
      (* Can this node still beat [incumbent] by more than [slack]? *)
      match dir with
      | Model.Maximize ->
        Q.compare (effective_bound objective) (Q.add incumbent slack) > 0
      | Model.Minimize ->
        Q.compare (effective_bound objective) (Q.sub incumbent slack) < 0
    in
    let better a b =
      match dir with
      | Model.Maximize -> Q.compare a b > 0
      | Model.Minimize -> Q.compare a b < 0
    in
    (* Rounding heuristic ({!Simplex.ENGINE.floor_incumbent}): the
       floored relaxation point, when feasible, is a free incumbent. *)
    let try_floor env st =
      let beats o = match env.bound () with Some b -> better o b | None -> true in
      match E.floor_incumbent st ~beats with
      | Some (objective, point) -> env.record objective point
      | None -> ()
    in
    let warm parent =
      Obs.Metrics.incr m_warm;
      E.branch parent
    in
    (* The node's relaxation: [`Optimal (state, box)] carries the
       presolved box its children narrow when the search presolves. *)
    let relax frame =
      match frame.box with
      | Cut (v, lower, bound) ->
        let st = warm (Option.get frame.parent) in
        if E.tighten st v ~lower bound then `Optimal (st, None)
        else `Infeasible (fun () -> E.certificate st)
      | Box (lb, ub) -> (
        match
          (match M.root with
           | Some outcome when frame.depth = 0 -> outcome
           | _ ->
             if M.presolve then Presolve.tighten model ~lb ~ub
             else Presolve.Tightened (lb, ub))
        with
        | Presolve.Infeasible -> `Pruned
        | Presolve.Tightened (lb, ub) -> (
          let box = if M.presolve then Some (lb, ub) else None in
          match frame.parent with
          | Some parent ->
            let st = warm parent in
            if E.resolve st ~lb ~ub then `Optimal (st, box)
            else `Infeasible (fun () -> E.certificate st)
          | None -> (
            let st, solution, cert =
              if M.certified then E.root_certified model ~lb ~ub
              else
                let st, solution = E.root model ~lb ~ub in
                (st, solution, None)
            in
            match (solution, st) with
            | Solution.Optimal _, Some st -> `Optimal (st, box)
            | Solution.Infeasible, _ -> `Infeasible (fun () -> cert)
            | Solution.Unbounded, _ ->
              (* An unbounded relaxation of a node means the ILP itself
                 is unbounded or infeasible; surface it at the root. *)
              raise (Unbounded_search cert)
            | Solution.Optimal _, None -> assert false)))
    in
    (* One node: count it, relax it warm from the parent state, then
       settle as a leaf or push both children ([push] up first so the
       down child pops first — the recursive visit order). Everything
       but recorded incumbents, branch pivots and certificates stays in
       the engine's scalar. *)
    let process env ~push frame =
      env.count_node frame.depth;
      match relax frame with
      | `Pruned -> frame.set M.presolve_leaf
      | `Infeasible cert -> frame.set (M.leaf_infeasible cert)
      | `Optimal (st, box) ->
        let objective = E.objective st in
        let fractional = E.most_fractional st in
        if Option.is_some fractional then try_floor env st;
        let prune =
          match env.bound () with
          | Some b -> not (worth_exploring objective b)
          | None -> false
        in
        if prune then begin
          Obs.Metrics.incr m_pruned;
          frame.set (M.leaf_bounded st)
        end
        else begin
          match fractional with
          | None ->
            (match env.bound () with
             | Some b when not (better objective b) -> ()
             | _ -> env.record objective (E.values st));
            frame.set (M.leaf_bounded st)
          | Some (v, fl) ->
            let cl = Q.add fl Q.one in
            let down, up =
              match box with
              | None -> (Cut (v, false, fl), Cut (v, true, cl))
              | Some (lb, ub) ->
                let ub' = Array.copy ub in
                ub'.(v) <-
                  (match ub.(v) with
                   | Some u -> Some (Q.min u fl)
                   | None -> Some fl);
                let lb' = Array.copy lb in
                lb'.(v) <-
                  (match lb.(v) with
                   | Some l -> Some (Q.max l cl)
                   | None -> Some cl);
                (Box (lb, ub'), Box (lb', ub))
            in
            let dhole = ref None and uhole = ref None in
            let pending = ref 2 in
            let join hole t =
              hole := Some t;
              decr pending;
              if !pending = 0 then
                frame.set
                  (M.branch_node ~var:v ~pivot:fl
                     ~down:(Option.get !dhole)
                     ~up:(Option.get !uhole))
            in
            push
              { depth = frame.depth + 1; parent = Some st; box = up;
                set = join uhole };
            push
              { depth = frame.depth + 1; parent = Some st; box = down;
                set = join dhole }
        end
    in
    let exhaust env stack =
      let rec go () =
        match !stack with
        | [] -> ()
        | f :: rest ->
          stack := rest;
          process env ~push:(fun fr -> stack := fr :: !stack) f;
          go ()
      in
      go ()
    in
    let best : (Q.t * Q.t array) option ref = ref None in
    let nodes = ref 0 in
    let count_global ~parallel_phase depth =
      incr nodes;
      Obs.Metrics.incr m_nodes;
      if parallel_phase then Obs.Metrics.incr m_par_nodes;
      Obs.Metrics.set_max m_max_depth depth;
      if !nodes > node_limit then begin
        Obs.Metrics.incr m_node_limit;
        raise Node_limit_exceeded
      end
    in
    let genv ~parallel_phase =
      {
        bound = (fun () -> Option.map fst !best);
        record =
          (fun o v ->
             Obs.Metrics.incr m_incumbents;
             best := Some (o, v));
        count_node = count_global ~parallel_phase;
      }
    in
    (* Claim-mine-merge over the frontier cut. The spawner participates
       in claiming, then block-waits on its own condition variable for
       any subtree a helper claimed — helpers never block, so there is
       no cycle to deadlock on (in particular, a caller holding a
       solve-cache reservation never executes foreign pool work here). *)
    let explore_subtrees frames =
      let subs = Array.of_list frames in
      let m = Array.length subs in
      let budget0 = node_limit - !nodes in
      let shared : Q.t option Atomic.t = Atomic.make (Option.map fst !best) in
      let results : sub_result option array = Array.make m None in
      let rlock = Mutex.create () in
      let rcond = Condition.create () in
      let claim = Atomic.make 0 in
      let speculative frame =
        let snap = Atomic.get shared in
        let local = ref None in
        let lnodes = ref 0 in
        let publish o =
          let rec cas () =
            let cur = Atomic.get shared in
            let improves =
              match cur with None -> true | Some c -> better o c
            in
            if improves && not (Atomic.compare_and_set shared cur (Some o))
            then cas ()
          in
          cas ()
        in
        let env =
          {
            bound =
              (fun () ->
                 match !local with Some (o, _) -> Some o | None -> snap);
            record =
              (fun o v ->
                 Obs.Metrics.incr m_incumbents;
                 local := Some (o, v);
                 publish o);
            count_node =
              (fun depth ->
                 incr lnodes;
                 Obs.Metrics.incr m_nodes;
                 Obs.Metrics.incr m_par_nodes;
                 Obs.Metrics.set_max m_max_depth depth;
                 if !lnodes > budget0 then raise Node_limit_exceeded);
          }
        in
        let result = ref None in
        let stack = ref [ { frame with set = (fun t -> result := Some t) } ] in
        let r, delta = Obs.Metrics.capture (fun () -> exhaust env stack) in
        match r with
        | Ok () ->
          { snap; sr_nodes = !lnodes; limit_hit = false; local_best = !local;
            delta; sub_node = !result; err = None }
        | Error Node_limit_exceeded ->
          { snap; sr_nodes = !lnodes; limit_hit = true; local_best = !local;
            delta; sub_node = None; err = None }
        | Error e ->
          { snap; sr_nodes = !lnodes; limit_hit = false; local_best = !local;
            delta; sub_node = None; err = Some e }
      in
      let run_claims ~stolen () =
        let rec go () =
          let i = Atomic.fetch_and_add claim 1 in
          if i < m then begin
            Obs.Metrics.incr m_subtrees;
            if stolen then Obs.Metrics.incr m_subtree_steals;
            let r = speculative subs.(i) in
            Mutex.lock rlock;
            results.(i) <- Some r;
            Condition.broadcast rcond;
            Mutex.unlock rlock;
            go ()
          end
        in
        go ()
      in
      (match parallel with
       | Some p when p.degree > 1 && m > 1 ->
         let helpers = min (p.degree - 1) (m - 1) in
         for _ = 1 to helpers do
           p.spawn (fun () -> run_claims ~stolen:true ())
         done
       | _ -> ());
      run_claims ~stolen:false ();
      (* every index is claimed by now; wait out helpers' stragglers *)
      let wait i =
        Mutex.lock rlock;
        while (match results.(i) with None -> true | Some _ -> false) do
          Condition.wait rcond rlock
        done;
        let r = match results.(i) with Some r -> r | None -> assert false in
        Mutex.unlock rlock;
        r
      in
      let replay frame =
        let stack = ref [ frame ] in
        exhaust (genv ~parallel_phase:true) stack
      in
      for i = 0 to m - 1 do
        let r = wait i in
        let prefix = Option.map fst !best in
        let matches =
          match (r.snap, prefix) with
          | None, None -> true
          | Some a, Some b -> Q.compare a b = 0
          | _ -> false
        in
        let fits = (not r.limit_hit) && r.sr_nodes <= node_limit - !nodes in
        if matches && fits then begin
          (* the run saw exactly the sequential incumbent, so it made
             exactly the sequential decisions: commit it *)
          nodes := !nodes + r.sr_nodes;
          Obs.Metrics.commit r.delta;
          (match r.local_best with
           | Some (o, v) -> (
             match !best with
             | Some (b, _) when not (better o b) -> ()
             | _ -> best := Some (o, v))
           | None -> ());
          match r.err with
          | Some e -> raise e
          | None -> (
            match r.sub_node with
            | Some t -> subs.(i).set t
            | None -> assert false)
        end
        else
          (* stale snapshot or past the exact remaining budget: redo this
             subtree inline at its sequential position (re-raising any
             abort — node limit, tier restart — at the sequential point) *)
          replay subs.(i)
      done
    in
    let lb0 = Array.init nv (fun v -> (Model.var_info model v).Model.lb) in
    let ub0 = Array.init nv (fun v -> (Model.var_info model v).Model.ub) in
    let root_node = ref None in
    Obs.Tracer.with_span "ilp.branch_bound"
      ~attrs:(fun () ->
          [ ("vars", string_of_int nv); ("nodes", string_of_int !nodes) ])
      (fun () ->
         match
           let stack =
             ref
               [ { depth = 0; parent = None; box = Box (lb0, ub0);
                   set = (fun t -> root_node := Some t) } ]
           in
           let size = ref 1 in
           let push f =
             stack := f :: !stack;
             incr size
           in
           let env0 = genv ~parallel_phase:false in
           let continue_ = ref true in
           while !continue_ do
             match !stack with
             | [] -> continue_ := false
             | _ when !size >= frontier -> continue_ := false
             | f :: rest ->
               stack := rest;
               decr size;
               process env0 ~push f
           done;
           match !stack with
           | [] -> ()
           | frames ->
             Obs.Metrics.incr m_par_splits;
             explore_subtrees frames
         with
         | () ->
           let solution =
             match !best with
             | Some (objective, values) ->
               Solution.Optimal { objective; values }
             | None -> Solution.Infeasible
           in
           let node =
             match !root_node with Some n -> n | None -> assert false
           in
           `Finished (solution, node)
         | exception Unbounded_search c -> `Unbounded c)
end

let search engine ~node_limit ~slack ~presolve ~root ~parallel ~frontier model
  =
  let module En = (val engine : Simplex.ENGINE) in
  let module S = Search (struct
    module E = En

    type node = unit

    let certified = false
    let presolve_leaf = ()
    let leaf_infeasible _ = ()
    let leaf_bounded _ = ()
    let branch_node ~var:_ ~pivot:_ ~down:_ ~up:_ = ()
    let presolve = presolve
    let root = root
  end) in
  match S.run ~node_limit ~slack ~parallel ~frontier model with
  | `Finished (sol, ()) -> sol
  | `Unbounded _ -> Solution.Unbounded

(* Certified search: identical branching discipline, but the root goes
   through the certified engine entry point and the search keeps a log —
   a {!Cert.tree} — that an independent checker can replay; leaves read
   their certificates (duals or a Farkas proof) off the node's state.
   Presolve (and any given root presolve outcome) is disabled so that
   every node box is derivable from the declared bounds plus the
   branching path alone; that changes the node count — and so, under a node
   limit, possibly the outcome — but not the answer of a finished
   search, which only depends on the exhaustive search discipline. *)
let search_certified engine ~node_limit ~slack ~parallel ~frontier model =
  let module En = (val engine : Simplex.ENGINE) in
  let module S = Search (struct
    module E = En

    type node = Cert.tree

    let certified = true

    (* unreachable: the certified search never presolves *)
    let presolve_leaf = Cert.Leaf_bounded { duals = [||] }

    let leaf_infeasible cert =
      match cert () with
      | Some c -> Cert.Leaf_infeasible c
      | None -> raise Uncertified

    (* Sound against the final answer because incumbents only ever
       improve: the dual bound beats at most incumbent + slack, and
       incumbent <= answer. Covers pruned nodes and integral leaves. *)
    let leaf_bounded st =
      match E.certificate st with
      | Some (Cert.Optimal_cert { duals }) -> Cert.Leaf_bounded { duals }
      | Some _ | None -> raise Uncertified

    let branch_node ~var ~pivot ~down ~up = Cert.Branch { var; pivot; down; up }
    let presolve = false
    let root = None
  end) in
  match S.run ~node_limit ~slack ~parallel ~frontier model with
  | `Finished (solution, tree) ->
    (solution, Some (Cert.Ilp { islack = slack; tree }))
  | `Unbounded c ->
    (* Warm re-solves never end [Unbounded] (branching only tightens
       bounds), so this can only fire at the root node. *)
    (Solution.Unbounded, Option.map (fun c -> Cert.Ilp_unbounded c) c)

let solve ?(node_limit = 200_000) ?(slack = Q.zero) ?(presolve = true) ?root
    ?parallel ?(frontier = default_frontier) model =
  if Q.sign slack < 0 then invalid_arg "Branch_bound.solve: negative slack";
  if frontier < 1 then invalid_arg "Branch_bound.solve: frontier must be >= 1";
  Obs.Metrics.incr m_solves;
  (* Tier ladder: machine-word fast path, exact rationals, dense primal.
     Each restart reruns the entire search, so the answer is always the
     deterministic output of a single engine. *)
  match
    search Simplex.fast ~node_limit ~slack ~presolve ~root ~parallel ~frontier
      model
  with
  | result -> result
  | exception (Fastq.Overflow | Simplex.Stalled) -> (
      Obs.Metrics.incr m_restarts;
      match
        search Simplex.exact ~node_limit ~slack ~presolve ~root ~parallel
          ~frontier model
      with
      | result -> result
      | exception Simplex.Stalled ->
        Obs.Metrics.incr m_restarts;
        search Simplex.dense ~node_limit ~slack ~presolve ~root ~parallel
          ~frontier model)

let solve_certified ?(node_limit = 200_000) ?(slack = Q.zero) ?parallel
    ?(frontier = default_frontier) model =
  if Q.sign slack < 0 then
    invalid_arg "Branch_bound.solve_certified: negative slack";
  if frontier < 1 then
    invalid_arg "Branch_bound.solve_certified: frontier must be >= 1";
  Obs.Metrics.incr m_solves;
  match
    search_certified Simplex.fast ~node_limit ~slack ~parallel ~frontier model
  with
  | result -> result
  | exception (Fastq.Overflow | Simplex.Stalled | Uncertified) -> (
      Obs.Metrics.incr m_restarts;
      match
        search_certified Simplex.exact ~node_limit ~slack ~parallel ~frontier
          model
      with
      | result -> result
      | exception (Simplex.Stalled | Uncertified) ->
        Obs.Metrics.incr m_restarts;
        ( search Simplex.dense ~node_limit ~slack ~presolve:false ~root:None
            ~parallel ~frontier model,
          None ))

let solve_lp_relaxation = Simplex.solve
