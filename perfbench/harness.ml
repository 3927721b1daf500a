(* Shared run scaffolding: the time box, set-up timing and the
   per-layer metrics derived from one traced pass. *)

let now = Clock.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Runs [unit i] for i = 0, 1, ... while the next unit, taking as long
   as the last one did, still ends within [seconds] of [start], and at
   least [min_units] times; returns the results in order. [after_min]
   runs once, right after unit [min_units - 1]. *)
let time_box ?(after_min = ignore) ~start ~seconds ~min_units unit =
  let rec go i last acc =
    if i >= min_units && now () -. start +. last > seconds then List.rev acc
    else begin
      let t0 = now () in
      let v = unit i in
      if i = min_units - 1 then after_min ();
      go (i + 1) (now () -. t0) (v :: acc)
    end
  in
  go 0 0. []

(* The process's peak RSS once a fixed amount of work is done: read at
   the end of the run it would grow with the number of units the time
   box happened to fit. *)
let rss_after_min () =
  let rss = ref 0. in
  ((fun () -> rss := Report.peak_rss_mb ()), fun () -> !rss)

(* Set-up before each timed unit. A full major collection first, so
   every unit starts from the same heap state; it is not part of the
   timed set-up, whose cost it would dominate and blur. *)
let setup f =
  Gc.full_major ();
  time f

let clear_caches () =
  Runtime.Run_cache.clear ();
  Runtime.Solve_cache.clear ()

let nproc = Domain.recommended_domain_count ()

let timing_counter name = Obs.Metrics.value (Obs.Metrics.counter ~timing:true name)
let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* Pass-level inputs of the per-layer metrics that spans cannot see. *)
type pass_facts = {
  wall : float;  (** traced pass wall time, probes included *)
  untraced_wall : float;  (** the same work untraced, at jobs = 1 *)
  counts : (string * int) list;  (** {!Counts} deltas over the pass *)
  runtime : int * int * int;  (** pool tasks, steals, dag nodes *)
  exact_rate : float;
}

let us s = s *. 1e6
let mean_dur spans = Stats.mean (List.map (fun (s : Span.t) -> s.dur) spans)
let mean_self spans = Stats.mean (List.map Span.self spans)
let fi = float_of_int

(* Every per-layer metric of the catalogue, from the spans recorded
   during one traced pass; layers the pass did not enter read 0. *)
let layer_metrics f =
  let count name = fi (try List.assoc name f.counts with Not_found -> 0) in
  let tcsim = Span.of_layer "tcsim" in
  let t_self = Span.self_of tcsim in
  let events = fi (Span.sum_counter tcsim "tcsim.events") in
  let cycles = fi (Span.sum_counter tcsim "tcsim.cycles") in
  let words = List.fold_left (fun a (s : Span.t) -> a +. s.minor_words) 0. tcsim in
  let hits_only name =
    List.filter
      (fun s -> Span.counter s (name ^ ".hits") > 0 && Span.counter s (name ^ ".misses") = 0)
  in
  let bb =
    List.filter (fun (s : Span.t) -> s.name = "simplex" || s.name = "branch_bound") (Span.all ())
  in
  let bb_sum name = fi (Span.sum_counter bb name) in
  let nodes = bb_sum "ilp.bb.nodes" in
  let solves = bb_sum "ilp.bb.solves" in
  let analysis = Span.of_layer "analysis" in
  let tasks, steals, dag_nodes = f.runtime in
  let traced_wall = f.wall -. Span.probe_seconds () in
  let engine_hits =
    List.filter
      (fun s -> Span.counter s "serve.query.memory_hits" > 0)
      (Span.named "engine.analyze")
  in
  List.map
    (fun l -> (l ^ ".self_s", Span.self_of (Span.of_layer l)))
    (List.tl Catalogue.layers)
  @ [
    (* simulated runs: a run-family probe simulates several *)
    ("tcsim.calls", fi (Span.sum_counter tcsim "tcsim.runs"));
    ("tcsim.self_s", t_self);
    ("tcsim.events", events);
    ("tcsim.cycles", cycles);
    ("tcsim.ns_per_event", Stats.ratio (t_self *. 1e9) events);
    ("tcsim.minor_words_per_event", Stats.ratio words events);
    ("tcsim.mcycles_per_s", Stats.ratio (cycles /. 1e6) t_self);
    ("run_cache.hits", count "run_cache.hits");
    ("run_cache.misses", count "run_cache.misses");
    ("run_cache.hit_us", us (mean_dur (hits_only "run_cache" (Span.of_layer "mbta"))));
    ("contention.build_model_us", us (mean_dur (Span.named "build_model")));
    ("contention.bound_self_us", us (mean_self (Span.named "contention_bound")));
    ("ilp.solves", solves);
    ("ilp.nodes", nodes);
    ("ilp.nodes_per_solve", Stats.ratio nodes solves);
    ("ilp.us_per_node", Stats.ratio (us (Span.self_of bb)) nodes);
    ("ilp.pivots_per_node", Stats.ratio (bb_sum "ilp.simplex.pivots") nodes);
    ("ilp.node_limit_hits", bb_sum "ilp.bb.node_limit_hits");
    ("ilp.engine_restarts", bb_sum "ilp.bb.engine_restarts");
    ("ilp.dense_fallbacks", bb_sum "ilp.simplex.dense_fallbacks");
    ("ilp.canonical_us", us (mean_dur (Span.named "canonical")));
    ("ilp.presolve_us", us (mean_dur (Span.named "presolve")));
    ("ilp.exact_rate", f.exact_rate);
    ("solve_cache.hits", count "solve_cache.hits");
    ("solve_cache.misses", count "solve_cache.misses");
    ("solve_cache.canonical_hits", count "ilp.cache.canonical_hits");
    ("audit.verified", count "audit.verified");
    ("audit.failed", count "audit.failed");
    ("audit.skipped", count "audit.skipped");
    ("audit.check_us", us (mean_dur (Span.named "audit.check")));
    ("audit.certified_solve_us", us (mean_dur (Span.named "solve_certified")));
    ("analysis.lint_calls", fi (List.length analysis));
    ("analysis.lint_us", us (mean_dur analysis));
    ("runtime.tasks", fi tasks);
    ("runtime.steals", fi steals);
    ("runtime.dag.nodes", fi dag_nodes);
    ("runtime.unattributed_s", traced_wall -. Span.total_self ());
    ("serve.digest_us", us (mean_dur (Span.named "digest")));
    ("serve.engine_hit_us", us (mean_dur engine_hits));
    ("serve.transport_us", us (mean_self (Span.named "client.rpc")));
    ("serve.codec_us", us (mean_dur (Span.named "codec")));
    ("serve.disk_load_us", us (mean_dur (Span.named "disk.load")));
    ("serve.query.computed", count "serve.query.computed");
    ("serve.query.memory_hits", count "serve.query.memory_hits");
    ("serve.query.disk_hits", count "serve.query.disk_hits");
    ("serve.rejects", count "serve.rejects");
    ("trace.wall_s", traced_wall);
    ("trace.overhead_ratio", Stats.ratio traced_wall f.untraced_wall);
  ]

(* Per-layer metrics of the traced pass with the median traced wall
   time: counts are identical from pass to pass, and taking every time
   from one pass keeps the self times adding up to its wall time. *)
let report_layers (r : Report.t) passes =
  let wall p = List.assoc "trace.wall_s" p in
  let sorted = List.sort (fun a b -> compare (wall a) (wall b)) passes in
  let median_pass = List.nth sorted ((List.length sorted - 1) / 2) in
  List.iter
    (fun (m : Catalogue.metric) -> Report.metric r m.name (List.assoc m.name median_pass))
    Catalogue.per_layer

let runtime_now () =
  (counter "pool.tasks", timing_counter "runtime.steals", counter "runtime.dag.nodes")

let runtime_delta (a, b, c) (a', b', c') = (a' - a, b' - b, c' - c)
