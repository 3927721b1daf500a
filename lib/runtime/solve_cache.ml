open Numeric

type outcome = Solved of Ilp.Solution.t | Node_limit

type stats = {
  hits : int;
  misses : int;
  raw_hits : int;
  canonical_hits : int;
  waited : int;
}

(* Entries are keyed by the model's *canonical structure* (see
   {!Ilp.Canonical}), so sweep points that build the same program in a
   different variable/row order share one solve. The canonical
   *representative* is what gets solved, and outcomes are stored in the
   representative's frame: every requester — including the first — maps
   values back through its own permutation. That keeps the stored
   outcome independent of which twin arrived first, so results stay
   deterministic at any parallel degree.

   Single-flight: the first requester of a key installs [Pending] and
   solves; concurrent requesters of the same key block on [settled]
   until the outcome lands, then count as hits. This makes the hit/miss
   split a function of the request sequence alone — every unique key is
   exactly one miss, every other request a hit — so cache counters are
   identical at any parallel degree, which the metrics determinism
   guarantee relies on.

   Every hit is classified (exactly once — waiters are not a third hit
   class, so the breakdown never double-counts them) as
   - [raw_hits]: some earlier request had this exact model (same raw
     digest), or
   - [canonical_hits]: only a structural twin had been seen — the dedup
     that exists purely thanks to canonicalization.
   Classification is by raw-digest membership in the entry, which
   depends on the multiset of requests, not their arrival order, so
   both totals are identical at any parallel degree. [waited] counts
   how many of those hits also blocked on an in-flight solve; that is a
   timing fact of the parallel schedule (always 0 at jobs=1), so it is
   kept out of the jobs-invariant Obs counter set and reported only in
   [stats]. *)
type entry = {
  mutable state : state;
  raw_seen : (string, unit) Hashtbl.t; (* raw digests already served *)
}

and state = Done of outcome | Pending

let table : (string, entry) Hashtbl.t = Hashtbl.create 256
let lock = Mutex.create ()
let settled = Condition.create ()
let hit_count = Atomic.make 0
let miss_count = Atomic.make 0
let raw_hit_count = Atomic.make 0
let canonical_hit_count = Atomic.make 0
let waited_count = Atomic.make 0
let m_hits = Obs.Metrics.counter "solve_cache.hits"
let m_misses = Obs.Metrics.counter "solve_cache.misses"
let m_raw_hits = Obs.Metrics.counter "solve_cache.raw_hits"
let m_canonical_hits = Obs.Metrics.counter "ilp.cache.canonical_hits"
let m_entries = Obs.Metrics.gauge "solve_cache.entries"

let key ~tag model =
  Digest.to_hex (Digest.string (tag ^ "\n" ^ Ilp.Model.canonical model))

let canonical_key ~tag canon =
  Digest.to_hex (Digest.string (tag ^ "\n" ^ Ilp.Canonical.structure canon))

(* --- stable key/entry serialization ------------------------------------- *)

(* Persisted outcomes are stored in the canonical representative's frame
   (exactly what the in-memory table holds), so a disk-loaded entry goes
   through the same [replay] permutation mapping as a memory hit.
   Rationals are rendered via {!Q.to_string} — exact, so a reloaded
   solution is bitwise the solution a fresh solve would produce. *)

(* v2: the ILP tag lost its [presolve=] field, since the plain solves
   stopped presolving. *)
let key_format_version = 2

(* v1: certificate-less entry — emitted bitwise-identically to the
   pre-audit format, so existing disk caches stay valid. v2: the same
   fields plus a ["cert"] object ({!Ilp.Cert.to_json}); emitted only
   when a solve actually carried a certificate. The decoder accepts
   both. *)
let entry_format_version = 2

let is_key s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let key_to_string k = k
let key_of_string s = if is_key s then Some s else None

module J = Obs.Json

let entry_to_string ?cert outcome =
  let version = match cert with None -> 1 | Some _ -> 2 in
  let fields =
    match outcome with
    | Solved (Ilp.Solution.Optimal { objective; values }) ->
      [
        ("v", J.Int version);
        ("outcome", J.Str "optimal");
        ("objective", J.Str (Q.to_string objective));
        ( "values",
          J.List
            (Array.to_list (Array.map (fun q -> J.Str (Q.to_string q)) values))
        );
      ]
    | Solved Ilp.Solution.Infeasible ->
      [ ("v", J.Int version); ("outcome", J.Str "infeasible") ]
    | Solved Ilp.Solution.Unbounded ->
      [ ("v", J.Int version); ("outcome", J.Str "unbounded") ]
    | Node_limit -> [ ("v", J.Int version); ("outcome", J.Str "node-limit") ]
  in
  let fields =
    match cert with
    | None -> fields
    | Some c -> fields @ [ ("cert", Ilp.Cert.to_json c) ]
  in
  J.to_string (J.Obj fields)

let ( let* ) = Option.bind

let q_of_string s =
  match Q.of_string s with q -> Some q | exception _ -> None

let entry_decode s =
  match J.parse s with
  | Error _ -> None
  | Ok j ->
    let* v = match J.member "v" j with Some (J.Int i) -> Some i | _ -> None in
    if v < 1 || v > entry_format_version then None
    else
      let* outcome =
        match J.member "outcome" j with Some (J.Str s) -> Some s | _ -> None
      in
      let* outcome =
        match outcome with
        | "infeasible" -> Some (Solved Ilp.Solution.Infeasible)
        | "unbounded" -> Some (Solved Ilp.Solution.Unbounded)
        | "node-limit" -> Some Node_limit
        | "optimal" ->
          let* objective =
            match J.member "objective" j with
            | Some (J.Str s) -> q_of_string s
            | _ -> None
          in
          let* values =
            match J.member "values" j with
            | Some (J.List xs) ->
              let rec loop acc = function
                | [] -> Some (List.rev acc)
                | J.Str s :: rest ->
                  let* q = q_of_string s in
                  loop (q :: acc) rest
                | _ -> None
              in
              loop [] xs
            | _ -> None
          in
          Some
            (Solved
               (Ilp.Solution.Optimal
                  { objective; values = Array.of_list values }))
        | _ -> None
      in
      (match (v, J.member "cert" j) with
       | 1, _ | _, None -> Some (outcome, None)
       | _, Some cj ->
         (* a v2 entry that declares a certificate must decode: a
            mangled certificate makes the whole entry corrupt *)
         let* c = Ilp.Cert.of_json cj in
         Some (outcome, Some c))

let entry_of_string s = Option.map fst (entry_decode s)

(* --- persistent backing store ------------------------------------------- *)

type store = {
  load : string -> string option;
  save : string -> string -> unit;
  reject : string -> unit;
}

let store_ref : store option Atomic.t = Atomic.make None

let set_store s = Atomic.set store_ref s

let store_load k =
  match Atomic.get store_ref with
  | None -> None
  | Some s -> (
    match s.load k with
    | None -> None
    | Some data -> entry_decode data
    | exception _ -> None)

let store_save ?cert k o =
  match Atomic.get store_ref with
  | None -> ()
  | Some s -> ( try s.save k (entry_to_string ?cert o) with _ -> ())

let store_reject k =
  match Atomic.get store_ref with
  | None -> ()
  | Some s -> ( try s.reject k with _ -> ())

let size () =
  Mutex.lock lock;
  let n =
    Hashtbl.fold
      (fun _ e acc -> match e.state with Done _ -> acc + 1 | Pending -> acc)
      table 0
  in
  Mutex.unlock lock;
  n

let count_hit ~key ~waited kind =
  Atomic.incr hit_count;
  Obs.Metrics.incr m_hits;
  Obs.Tracer.instant "cache.solve.hit"
    ~attrs:(fun () ->
        [ ("key", key);
          ("kind", match kind with `Raw -> "raw" | `Canonical -> "canonical") ]);
  if waited then Atomic.incr waited_count;
  match kind with
  | `Raw ->
    Atomic.incr raw_hit_count;
    Obs.Metrics.incr m_raw_hits
  | `Canonical ->
    Atomic.incr canonical_hit_count;
    Obs.Metrics.incr m_canonical_hits

(* Either returns the settled outcome (classified raw/canonical) or
   reserves the key for the caller to solve (waiting out another
   domain's in-flight solve first). *)
let acquire ~raw k =
  Mutex.lock lock;
  let rec loop ~waited =
    match Hashtbl.find_opt table k with
    | Some { state = Done o; raw_seen } ->
      let kind = if Hashtbl.mem raw_seen raw then `Raw else `Canonical in
      Hashtbl.replace raw_seen raw ();
      Mutex.unlock lock;
      `Hit (o, kind, waited)
    | Some { state = Pending; _ } ->
      Condition.wait settled lock;
      loop ~waited:true
    | None ->
      let raw_seen = Hashtbl.create 4 in
      Hashtbl.replace raw_seen raw ();
      Hashtbl.replace table k { state = Pending; raw_seen };
      Mutex.unlock lock;
      `Reserved
  in
  loop ~waited:false

let settle k result =
  Mutex.lock lock;
  (match (Hashtbl.find_opt table k, result) with
   | Some e, Some outcome -> e.state <- Done outcome
   | Some _, None ->
     (* the solver raised something we don't cache: release the key so a
        later request can retry *)
     Hashtbl.remove table k
   | None, _ -> ());
  Condition.broadcast settled;
  Mutex.unlock lock;
  if result <> None then Obs.Metrics.set m_entries (size ())

(* Map a canonical-frame outcome back into the requester's frame. *)
let replay canon outcome =
  match outcome with
  | Solved (Ilp.Solution.Optimal { objective; values }) ->
    Ilp.Solution.Optimal
      { objective; values = Ilp.Canonical.restore_values canon values }
  | Solved s -> s
  | Node_limit -> raise Ilp.Branch_bound.Node_limit_exceeded

(* --- audit mode --------------------------------------------------------- *)

(* When enabled, every fresh solve goes through the certified solver
   entry points and its certificate is checked by {!Audit.Checker}
   (an arithmetic-independent exact checker) before the outcome
   settles; certificates are persisted with the entry and re-checked on
   every disk load (failed check => quarantine + certified recompute).
   All auditing happens inside the single-flight reservation, so each
   unique key is audited exactly once per process — the
   audit.{verified,failed,skipped} counters are jobs-invariant. *)
let audit_flag = Atomic.make false

let set_audit b = Atomic.set audit_flag b
let audit_enabled () = Atomic.get audit_flag

(* Keys whose *freshly computed* answer failed its own audit — a solver
   bug surfaced; the answer is still served (there is no better one) and
   the failure is reported by the [audit] subcommand. Quarantined disk
   entries are deliberately not recorded here: they are recovered from
   by recomputation. *)
let audit_failures_tbl : (string, string) Hashtbl.t = Hashtbl.create 16

let record_audit_failure k reason =
  Mutex.lock lock;
  Hashtbl.replace audit_failures_tbl k reason;
  Mutex.unlock lock

let audit_failures () =
  Mutex.lock lock;
  let l = Hashtbl.fold (fun k r acc -> (k, r) :: acc) audit_failures_tbl [] in
  Mutex.unlock lock;
  List.sort compare l

(* [solve] and [solve_certified] run on the canonical representative. *)
let solve_cached ~tag ?slack ~solve ~solve_certified model =
  let canon = Ilp.Canonical.of_model model in
  let raw = key ~tag model in
  let k = canonical_key ~tag canon in
  match acquire ~raw k with
  | `Hit (o, kind, waited) ->
    count_hit ~key:k ~waited kind;
    replay canon o
  | `Reserved ->
    Atomic.incr miss_count;
    Obs.Metrics.incr m_misses;
    Obs.Tracer.instant "cache.solve.miss" ~attrs:(fun () -> [ ("key", k) ]);
    let auditing = audit_enabled () in
    let cm = Ilp.Canonical.model canon in
    let compute () =
      match
        if auditing then begin
          let s, cert = solve_certified cm in
          (match Audit.Checker.audit ?slack cm s cert with
           | Some (Audit.Checker.Failed reason) -> record_audit_failure k reason
           | Some Audit.Checker.Verified | None -> ());
          (s, cert)
        end
        else (solve cm, None)
      with
      | s, cert ->
        settle k (Some (Solved s));
        store_save ?cert k (Solved s);
        replay canon (Solved s)
      | exception Ilp.Branch_bound.Node_limit_exceeded ->
        settle k (Some Node_limit);
        store_save k Node_limit;
        raise Ilp.Branch_bound.Node_limit_exceeded
      | exception e ->
        settle k None;
        raise e
    in
    (match store_load k with
     | None -> compute ()
     | Some (o, cert) ->
       if not auditing then begin
         settle k (Some o);
         replay canon o
       end
       else begin
         (* re-audit on disk load; the checksum tier catches bit rot,
            this tier catches entries whose *content* no longer proves
            what it claims *)
         match o with
         | Node_limit ->
           (* deterministic replay outcome; carries no certificate *)
           settle k (Some o);
           replay canon o
         | Solved _ when cert = None ->
           (* certless entry (pre-audit producer): recompute through
              the certified path so the tier gets upgraded in place *)
           compute ()
         | Solved s -> (
             match Audit.Checker.audit ?slack cm s cert with
             | Some Audit.Checker.Verified ->
               settle k (Some o);
               replay canon o
             | Some (Audit.Checker.Failed _) | None ->
               store_reject k;
               compute ())
       end)

(* --- public solvers ---------------------------------------------------- *)

let solve_lp model =
  solve_cached ~tag:"lp" ~solve:Ilp.Simplex.solve
    ~solve_certified:(fun m ->
        let s, c = Ilp.Simplex.solve_certified m in
        (s, Option.map (fun c -> Ilp.Cert.Lp c) c))
    model

(* --- intra-solve parallelism ------------------------------------------- *)

(* How a fresh ILP solve may fan its branch & bound subtrees out.
   [Ambient] (the default) uses the pool whose worker is running the
   request, if any — so figure4/table6/ablations DAG nodes split a hard
   solve across otherwise-idle domains with zero plumbing. The choice
   is deliberately NOT part of the cache tag: parallel and sequential
   searches return byte-identical solutions, node counts and
   certificates (the search commits speculative subtrees in sequential
   merge order), so entries are interchangeable. *)
type parallelism = Sequential | Ambient | On_pool of Pool.t

let bb_parallel = function
  | Sequential -> None
  | On_pool p ->
    if Pool.jobs p > 1 then
      Some
        { Ilp.Branch_bound.degree = Pool.jobs p; spawn = Pool.spawn_raw p }
    else None
  | Ambient -> (
    match Pool.current () with
    | Some p when Pool.jobs p > 1 ->
      Some
        { Ilp.Branch_bound.degree = Pool.jobs p; spawn = Pool.spawn_raw p }
    | _ -> None)

(* Fresh plain solves run the presolve-free search — the discipline the
   certified search of audit mode must use (its node boxes derive from
   the branching path alone) — so both modes search the same tree and
   settle the same outcome, node-limit hits included, under one key. *)
let solve_ilp ?(node_limit = 200_000) ?(slack = Q.zero) ?(parallel = Ambient)
    model =
  let tag = Printf.sprintf "ilp|nodes=%d|slack=%s" node_limit (Q.to_string slack) in
  (* [bb_parallel] is resolved per fresh solve, inside the single-flight
     reservation — waiters and hits never look at it *)
  solve_cached ~tag ~slack
    ~solve:(fun m ->
        Ilp.Branch_bound.solve ~node_limit ~slack ~presolve:false
          ?parallel:(bb_parallel parallel) m)
    ~solve_certified:(fun m ->
        Ilp.Branch_bound.solve_certified ~node_limit ~slack
          ?parallel:(bb_parallel parallel) m)
    model

let stats () =
  {
    hits = Atomic.get hit_count;
    misses = Atomic.get miss_count;
    raw_hits = Atomic.get raw_hit_count;
    canonical_hits = Atomic.get canonical_hit_count;
    waited = Atomic.get waited_count;
  }

let reset_stats () =
  Atomic.set hit_count 0;
  Atomic.set miss_count 0;
  Atomic.set raw_hit_count 0;
  Atomic.set canonical_hit_count 0;
  Atomic.set waited_count 0

let clear () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Hashtbl.reset audit_failures_tbl;
  (* waiters on a cleared Pending key re-check, find nothing, and become
     fresh misses — acceptable for a bench-only operation *)
  Condition.broadcast settled;
  Mutex.unlock lock;
  Obs.Metrics.set m_entries 0;
  reset_stats ()
