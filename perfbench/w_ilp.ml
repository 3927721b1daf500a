(* Workload [ilp_corpus]: seeded ILP-PTAC counter pairs (see {!Gen}),
   each bounded twice by Contention.Ilp_ptac.contention_bound — with
   default_options on the plain solve cache (the figure4 and serve
   path), then with mip_slack = 0 in audit mode (the certified path of
   [aurix_contention audit]). Each solve runs as a single task on a
   pool, as experiment DAG nodes do. Nothing is simulated. *)

module Ilp_ptac = Contention.Ilp_ptac

let latency = Gen.latency
let plain_options = Ilp_ptac.default_options
let audited_options = { Ilp_ptac.default_options with Ilp_ptac.mip_slack = 0 }

type answer = {
  result : Ilp_ptac.result option;
  seconds : float;
  limit_hit : bool;  (** the search itself ran out of nodes *)
  cache_hit : bool;
  verified : bool;  (** audited, verified, nothing failed or skipped *)
}

let watched =
  [ "ilp.bb.node_limit_hits"; "solve_cache.hits"; "audit.verified"; "audit.failed";
    "audit.skipped" ]

(* [wrap] lets the traced run put its spans and twin calls around the
   call; counter deltas cover everything it does. *)
let bound ~wrap pool ~audit (i : Gen.instance) =
  let scenario = Gen.scenario_of i.kind in
  let options = if audit then audited_options else plain_options in
  let before = List.map Harness.counter watched in
  let result, seconds =
    Harness.time (fun () ->
        wrap ~audit i (fun () ->
            List.hd
              (Runtime.Pool.run_all_in pool
                 [ (fun () ->
                       Ilp_ptac.contention_bound ~options ~latency ~scenario ~a:i.a
                         ~b:i.b ()) ])))
  in
  let d = List.map2 (fun n b -> (n, Harness.counter n - b)) watched before in
  let d n = List.assoc n d in
  {
    result;
    seconds;
    limit_hit = d "ilp.bb.node_limit_hits" > 0;
    cache_hit = d "solve_cache.hits" > 0;
    verified = d "audit.verified" > 0 && d "audit.failed" = 0 && d "audit.skipped" = 0;
  }

(* Soundness (ideal <= bound) on every answer. The paper's chain
   ideal <= ILP-PTAC <= fTC holds for the ILP optimum, so it is checked
   in full on exact answers; an inexact answer adds up to mip_slack (or
   is the LP relaxation when the node budget ran out) and may exceed
   fTC, which is counted, not failed. The plain answer must cover an
   exact audited optimum, within its slack when its search finished.
   Returns how many answers exceeded fTC. *)
let check_instance (r : Report.t) ~what (i : Gen.instance) plain audited =
  let ideal = Contention.Ideal.contention_bound ~latency ~a:i.pa ~b:i.pb () in
  let ftc = (Contention.Ftc.contention_bound ~latency ~a:i.a ()).Contention.Ftc.delta in
  let chain path (options : Ilp_ptac.options) answer =
    match answer.result with
    | None ->
      Report.check r false "%s: %s path found the model infeasible" what path;
      0
    | Some (res : Ilp_ptac.result) ->
      let cap =
        if res.exact then ftc
        else if answer.limit_hit || answer.cache_hit then max_int
        else ftc + options.mip_slack
      in
      Report.check r
        (ideal <= res.delta && res.delta <= cap)
        "%s: %s path breaks ideal <= ILP-PTAC <= fTC (%d, %d, %d, exact=%b)" what path
        ideal res.delta ftc res.exact;
      if res.delta > ftc then 1 else 0
  in
  let over = chain "plain" plain_options plain + chain "audited" audited_options audited in
  (match (plain.result, audited.result) with
   | Some p, Some a when a.exact ->
     Report.check r
       (a.delta <= p.delta
        && (plain.limit_hit || plain.cache_hit
            || p.delta <= a.delta + plain_options.mip_slack))
       "%s: plain bound %d disagrees with the exact optimum %d" what p.delta a.delta
   | _ -> ());
  over

let untraced ~audit:_ _ f = f ()

(* Both paths over one slice, each from a cold solve cache. *)
let run_slice ?(wrap = untraced) (r : Report.t) pool ~what slice =
  let path ~audit =
    Runtime.Solve_cache.clear ();
    Runtime.Solve_cache.set_audit audit;
    let answers = List.map (bound ~wrap pool ~audit) slice in
    Runtime.Solve_cache.set_audit false;
    answers
  in
  let plain = path ~audit:false in
  let audited = path ~audit:true in
  let over_ftc =
    List.fold_left ( + ) 0
      (List.mapi
         (fun k (i, (p, a)) ->
            check_instance r ~what:(Printf.sprintf "%s instance %d" what k) i p a)
         (List.combine slice (List.combine plain audited)))
  in
  Report.check r
    (Runtime.Solve_cache.audit_failures () = [])
    "%s: a fresh certified solve failed its audit" what;
  (plain, audited, over_ftc)

let exact_rate audited =
  Stats.ratio
    (float_of_int
       (List.length
          (List.filter
             (fun a ->
                a.verified
                && match a.result with Some res -> res.Ilp_ptac.exact | None -> false)
             audited)))
    (float_of_int (List.length audited))

type slice_run = {
  setup_s : float;
  wall : float;
  plain : answer list;
  audited : answer list;
  over_ftc : int;
  counts : (string * int) list;
}

(* A slice's set-up: cold caches, the slice generated, and its counter
   readings linted, as the paper pipeline lints readings before
   modelling them. *)
let measure_slice r pool ~what ~seed i =
  Speed.sample ();
  let slice, setup_s =
    Harness.setup (fun () ->
        Harness.clear_caches ();
        let slice = Gen.slice ~seed i in
        List.iteri
          (fun k (inst : Gen.instance) ->
             let scenario = Gen.scenario_of inst.kind in
             let diags =
               Analysis.Counter_lint.check ~latency ~scenario ~path:[ "a" ] inst.a
               @ Analysis.Counter_lint.check ~latency ~scenario ~path:[ "b" ] inst.b
             in
             Report.check r
               (not (Analysis.Diag.has_errors diags))
               "%s slice %d instance %d: generated readings fail counter lint" what i k)
          slice;
        slice)
  in
  let c0 = Counts.snapshot () in
  let (plain, audited, over_ftc), wall =
    Harness.time (fun () -> run_slice r pool ~what:(Printf.sprintf "%s slice %d" what i) slice)
  in
  { setup_s; wall; plain; audited; over_ftc; counts = Counts.diff c0 (Counts.snapshot ()) }

type untraced = {
  passes : slice_run list list;  (** the anchor corpus, once per pass *)
  rss_mb : float;  (** peak RSS after two passes *)
  seeded : slice_run;  (** one slice from the workload seed *)
}

(* The anchor corpus, pass after pass while the time lasts (at least
   two), then one slice from the workload seed. *)
let run_untraced (r : Report.t) ~seed ~seconds =
  let start = Harness.now () in
  let pool = Runtime.Pool.create ~jobs:Harness.nproc () in
  let after_min, rss = Harness.rss_after_min () in
  let passes =
    Harness.time_box ~after_min ~start ~seconds ~min_units:2 (fun p ->
        List.init Gen.anchor_slices
          (measure_slice r pool ~what:(Printf.sprintf "anchor pass %d" p)
             ~seed:Gen.anchor_seed))
  in
  let seeded = measure_slice r pool ~what:"seeded" ~seed 0 in
  Runtime.Pool.shutdown pool;
  { passes; rss_mb = rss (); seeded }

(* --- traced: the solves contention_bound makes, called directly first *)

let traced_bound ~audit (i : Gen.instance) bound =
  let scenario = Gen.scenario_of i.kind in
  let options = if audit then audited_options else plain_options in
  let model =
    Span.call ~layer:"contention" ~name:"build_model" (fun () ->
        fst (Ilp_ptac.build_model ~options ~latency ~scenario ~a:i.a ~b:i.b ()))
  in
  Twins.solves ~audit ~node_limit:options.node_limit
    ~slack:(Numeric.Q.of_int options.mip_slack) model;
  Span.call ~layer:"contention" ~name:"contention_bound" bound

(* Traced slices, anchor first, then from the workload seed. *)
let run_traced (r : Report.t) ~seed ~seconds =
  let start = Harness.now () in
  let pool = Runtime.Pool.create ~jobs:1 () in
  let passes =
    Harness.time_box ~start ~seconds ~min_units:1 (fun i ->
        let slice =
          if i < Gen.anchor_slices then Gen.slice ~seed:Gen.anchor_seed i
          else Gen.slice ~seed (i - Gen.anchor_slices)
        in
        let what = Printf.sprintf "traced slice %d" i in
        let (), _ = Harness.setup Harness.clear_caches in
        let rt0 = Harness.runtime_now () in
        let _, untraced_wall = Harness.time (fun () -> run_slice r pool ~what slice) in
        let runtime = Harness.runtime_delta rt0 (Harness.runtime_now ()) in
        let (), _ = Harness.setup Harness.clear_caches in
        Span.reset ();
        let c0 = Counts.snapshot () in
        let (_, audited, _), wall =
          Harness.time (fun () -> run_slice ~wrap:traced_bound r pool ~what slice)
        in
        let counts = Counts.diff c0 (Counts.snapshot ()) in
        ( Harness.layer_metrics
            { Harness.wall; untraced_wall; counts; runtime; exact_rate = exact_rate audited },
          (Printf.sprintf "slice%d" i, counts) ))
  in
  Runtime.Pool.shutdown pool;
  Harness.report_layers r (List.map fst passes);
  List.map snd passes
