(* Benchmark harness: regenerates every table and figure of the paper
   (Tables 2-6, Figure 4) plus the ablation studies documented in
   DESIGN.md, then times each pipeline stage with Bechamel (one Test.make
   per artifact).

   Usage:
     dune exec bench/main.exe                 # regenerate + time
     dune exec bench/main.exe -- tables       # regeneration only
     dune exec bench/main.exe -- timings      # Bechamel only
     dune exec bench/main.exe -- solver       # solver micro-benchmark
     dune exec bench/main.exe -- obs          # tracing/logging overhead
     dune exec bench/main.exe -- dag          # pipelined dag vs phased runner
     dune exec bench/main.exe -- perf-check   # vs bench/perf_baseline.json *)

open Bechamel
open Toolkit

let section title =
  Format.printf "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Regeneration: print the paper's tables and figures                  *)
(* ------------------------------------------------------------------ *)

(* Each regeneration stage is named so its wall/cpu time and solver
   metric deltas can be reported per artifact in BENCH_results.json. *)
let stages =
  [
    ( "table2",
      fun () ->
        section "Table 2: SRI latencies and minimum stall cycles (measured)";
        let t2 = Experiments.Table2.run () in
        Format.printf "%a@." Experiments.Table2.pp t2;
        Format.printf "matches the model's reference constants: %b@."
          (Experiments.Table2.matches_reference t2 Platform.Latency.default) );
    ( "table3",
      fun () ->
        section "Table 3: constraints on code/data wrt SRI slaves";
        Format.printf "%a@." Experiments.Static_tables.pp_table3 () );
    ( "table4",
      fun () ->
        section "Table 4: debug counters used by the models";
        Format.printf "%a@." Experiments.Static_tables.pp_table4 () );
    ( "table5",
      fun () ->
        section "Table 5: ILP-PTAC tailoring per deployment scenario";
        Format.printf "%a@." Experiments.Static_tables.pp_table5 () );
    ( "table6",
      fun () ->
        section "Table 6: counter readings (application + H-Load, isolation)";
        Format.printf "%a@." Experiments.Table6.pp (Experiments.Table6.run ()) );
    ( "figure4",
      fun () ->
        section "Figure 4: model predictions w.r.t. execution in isolation";
        Format.printf "%a@." Experiments.Figure4.pp_rows
          (Experiments.Figure4.run_all ()) );
    ( "ablation-a1",
      fun () ->
        section "Ablation A1: value of contender information (Eqs. 22-23)";
        Format.printf "%a@." Experiments.Ablations.pp_a1
          (Experiments.Ablations.a1_contender_info ()) );
    ( "ablation-a2",
      fun () ->
        section "Ablation A2: stall-equality encodings (Eqs. 20-23)";
        Format.printf "%a@." Experiments.Ablations.pp_a2
          (Experiments.Ablations.a2_equality_modes ()) );
    ( "ablation-a3",
      fun () ->
        section "Ablation A3: two simultaneous contenders";
        Format.printf "%a@." Experiments.Ablations.pp_a3
          (Experiments.Ablations.a3_multi_contender Platform.Scenario.scenario1);
        Format.printf "%a@." Experiments.Ablations.pp_a3
          (Experiments.Ablations.a3_multi_contender Platform.Scenario.scenario2) );
    ( "ablation-a4",
      fun () ->
        section "Ablation A4: FSB reduction vs crossbar model (Sec. 4.3)";
        Format.printf "%a@." Experiments.Ablations.pp_a4
          (Experiments.Ablations.a4_fsb ()) );
    ( "portability",
      fun () ->
        section "Extension E1: portability across TriCore variants (Sec. 4.3)";
        Format.printf "%a@." Experiments.Portability.pp
          (Experiments.Portability.run ()) );
    ( "priority",
      fun () ->
        section "Extension E2: SRI priority classes vs the same-class setting";
        Format.printf "%a@." Experiments.Priority_study.pp
          (Experiments.Priority_study.run ());
        Format.printf "%a@." Experiments.Priority_study.pp
          (Experiments.Priority_study.run ~scenario:Platform.Scenario.scenario2 ()) );
    ( "realistic",
      fun () ->
        section "Extension E3: realistic automotive use case (~10% remark)";
        Format.printf "%a@." Experiments.Realistic.pp (Experiments.Realistic.run ()) );
    ( "integration",
      fun () ->
        section "Extension E4: system integration (contention-aware RTA)";
        Format.printf "%a@." Experiments.Integration_study.pp
          (Experiments.Integration_study.run ()) );
    ( "dma",
      fun () ->
        section "Extension E5: specification-driven DMA background traffic";
        Format.printf "%a@." Experiments.Dma_study.pp (Experiments.Dma_study.run ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Solver micro-benchmark                                               *)
(* ------------------------------------------------------------------ *)

(* A deterministic family of branch & bound workloads in the shape the
   contention pipelines produce — small integer programs with dense
   knapsack-style rows and fractional LP optima (halved objective
   coefficients defeat the integral-bound pruning, forcing real
   branching). A fixed LCG generates the family, so every run on every
   machine benches the same models. *)
let solver_models () =
  (* 48-bit LCG (Knuth/POSIX drand48 constants): fits the 63-bit native
     int and is identical on every platform *)
  let state = ref 0x5DEECE66D in
  let rand bound =
    state := ((!state * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
    (!state lsr 16) mod bound
  in
  List.init 12 (fun _ ->
      let q = Numeric.Q.of_int in
      let m = Ilp.Model.create () in
      let nv = 5 + rand 5 in
      let vars =
        Array.init nv (fun i ->
            Ilp.Model.add_var m ~integer:true ~ub:(q (2 + rand 7))
              (Printf.sprintf "x%d" i))
      in
      let nr = 6 + rand 7 in
      for _ = 1 to nr do
        let terms =
          Array.to_list (Array.map (fun v -> (q (rand 11 - 4), v)) vars)
        in
        Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Le
          (q (10 + rand 40))
      done;
      Ilp.Model.set_objective m Ilp.Model.Maximize
        (Ilp.Linexpr.of_terms
           (Array.to_list
              (Array.map (fun v -> (Numeric.Q.of_ints (1 + rand 17) 2, v)) vars)));
      m)

let counter_delta before after k =
  Option.value ~default:0 (List.assoc_opt k after)
  - Option.value ~default:0 (List.assoc_opt k before)

type solver_bench = {
  bench_t : Runtime.Telemetry.t;
  deltas : (string * int) list;
  pivots_per_node : float;
  dense_root_wall_s : float;
  tiered_root_wall_s : float;
}

let solver_bench () =
  let models = solver_models () in
  let before = Obs.Metrics.deterministic_snapshot () in
  let (), bench_t =
    Runtime.Telemetry.measure ~jobs:1 (fun () ->
        List.iter (fun m -> ignore (Ilp.Branch_bound.solve m)) models)
  in
  let after = Obs.Metrics.deterministic_snapshot () in
  let deltas =
    List.filter_map
      (fun (k, v) ->
         let v0 = Option.value ~default:0 (List.assoc_opt k before) in
         if v <> v0 then Some (k, v - v0) else None)
      after
  in
  let pivots = counter_delta before after "ilp.simplex.pivots" in
  let nodes = counter_delta before after "ilp.bb.nodes" in
  let pivots_per_node =
    if nodes = 0 then 0. else float_of_int pivots /. float_of_int nodes
  in
  (* Engine-level wall-clock on the same root relaxations: the dense
     two-phase primal (every node a cold solve — the pre-warm-start
     engine, still the tier of last resort) against the tiered sparse
     engine the solver now runs. *)
  let boxes =
    List.map
      (fun m ->
         let nv = Ilp.Model.num_vars m in
         ( m,
           Array.init nv (fun v -> (Ilp.Model.var_info m v).Ilp.Model.lb),
           Array.init nv (fun v -> (Ilp.Model.var_info m v).Ilp.Model.ub) ))
      models
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 40 do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let dense_root_wall_s =
    time (fun () ->
        List.iter
          (fun (m, lb, ub) ->
             ignore (Ilp.Simplex.dense_solve_with_bounds m ~lb ~ub))
          boxes)
  in
  let tiered_root_wall_s =
    time (fun () ->
        List.iter
          (fun (m, lb, ub) -> ignore (Ilp.Simplex.solve_with_bounds m ~lb ~ub))
          boxes)
  in
  { bench_t; deltas; pivots_per_node; dense_root_wall_s; tiered_root_wall_s }

let json_of_solver_bench b =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "solver-microbench");
      ("wall_s", Obs.Json.Float b.bench_t.Runtime.Telemetry.wall_s);
      ("cpu_s", Obs.Json.Float b.bench_t.Runtime.Telemetry.cpu_s);
      ("cache_hits", Obs.Json.Int b.bench_t.Runtime.Telemetry.cache_hits);
      ("cache_misses", Obs.Json.Int b.bench_t.Runtime.Telemetry.cache_misses);
      ("pivots_per_node", Obs.Json.Float b.pivots_per_node);
      ("dense_root_wall_s", Obs.Json.Float b.dense_root_wall_s);
      ("tiered_root_wall_s", Obs.Json.Float b.tiered_root_wall_s);
      ( "counters",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) b.deltas) );
    ]

let pp_solver_bench b =
  let d k = Option.value ~default:0 (List.assoc_opt k b.deltas) in
  Format.printf "nodes=%d pivots=%d (%.2f pivots/node) dual=%d warm=%d@."
    (d "ilp.bb.nodes")
    (d "ilp.simplex.pivots")
    b.pivots_per_node
    (d "ilp.simplex.dual_pivots")
    (d "ilp.bb.warm_starts");
  Format.printf
    "root relaxations x40: dense %.3fs, tiered %.3fs (%.2fx faster)@."
    b.dense_root_wall_s b.tiered_root_wall_s
    (b.dense_root_wall_s /. Float.max b.tiered_root_wall_s 1e-9)

(* ------------------------------------------------------------------ *)
(* Audit overhead benchmark                                             *)
(* ------------------------------------------------------------------ *)

(* The same deterministic model family solved through the certified
   entry point with every answer re-verified by the independent exact
   checker, against the plain path — the price of proof-carrying
   solves, reported as verified solves per second. *)
type audit_bench = {
  audit_models : int;
  audit_reps : int;
  audit_verified : int;
  audit_failed : int;
  audit_skipped : int;
  plain_wall_s : float;
  certified_wall_s : float;  (* solve_certified + checker *)
  verified_per_s : float;
  audit_overhead : float;  (* certified / plain *)
}

let audit_bench () =
  let models = solver_models () in
  let reps = 10 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let plain_wall_s =
    time (fun () ->
        List.iter (fun m -> ignore (Ilp.Branch_bound.solve m)) models)
  in
  let verified = ref 0 and failed = ref 0 and skipped = ref 0 in
  let certified_wall_s =
    time (fun () ->
        List.iter
          (fun m ->
             let sol, cert = Ilp.Branch_bound.solve_certified m in
             match Audit.Checker.audit m sol cert with
             | Some Audit.Checker.Verified -> incr verified
             | Some (Audit.Checker.Failed _) -> incr failed
             | None -> incr skipped)
          models)
  in
  {
    audit_models = List.length models;
    audit_reps = reps;
    audit_verified = !verified;
    audit_failed = !failed;
    audit_skipped = !skipped;
    plain_wall_s;
    certified_wall_s;
    verified_per_s = float_of_int !verified /. Float.max certified_wall_s 1e-9;
    audit_overhead = certified_wall_s /. Float.max plain_wall_s 1e-9;
  }

let json_of_audit_bench b =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "audit-overhead");
      ("models", Obs.Json.Int b.audit_models);
      ("reps", Obs.Json.Int b.audit_reps);
      ("verified", Obs.Json.Int b.audit_verified);
      ("failed", Obs.Json.Int b.audit_failed);
      ("skipped", Obs.Json.Int b.audit_skipped);
      ("plain_wall_s", Obs.Json.Float b.plain_wall_s);
      ("certified_wall_s", Obs.Json.Float b.certified_wall_s);
      ("verified_per_s", Obs.Json.Float b.verified_per_s);
      ("audit_overhead", Obs.Json.Float b.audit_overhead);
    ]

let pp_audit_bench b =
  Format.printf "audited %d models x%d: %d verified, %d failed, %d skipped@."
    b.audit_models b.audit_reps b.audit_verified b.audit_failed
    b.audit_skipped;
  Format.printf
    "plain %.3fs, certified+checked %.3fs (%.2fx overhead, %.0f verified \
     solves/s)@."
    b.plain_wall_s b.certified_wall_s b.audit_overhead b.verified_per_s

(* ------------------------------------------------------------------ *)
(* Simulator throughput benchmark                                       *)
(* ------------------------------------------------------------------ *)

(* The figure-4 co-run grid simulated under both kernels, bypassing the
   run cache (Tcsim.Machine.run directly), so the numbers measure the
   simulation loops themselves. Simulated cycles are identical for both
   kernels by construction — the differential suite enforces it — so
   cycles/second is the honest throughput unit. *)
type sim_bench = {
  sim_cycles : int;  (* simulated cycles per kernel pass *)
  stepped_wall_s : float;
  event_wall_s : float;
  stepped_cps : float;  (* simulated cycles per wall second *)
  event_cps : float;
  sim_event_speedup : float;
}

let sim_workloads () =
  List.concat_map
    (fun scenario ->
       let variant = Workload.Control_loop.variant_of_scenario scenario in
       let app = Workload.Control_loop.app variant in
       List.map
         (fun level -> (app, Workload.Load_gen.make ~variant ~level ()))
         Workload.Load_gen.all_levels)
    [ Platform.Scenario.scenario1; Platform.Scenario.scenario2 ]

let sim_bench () =
  let workloads = sim_workloads () in
  let pass kernel =
    (* the paper's measurement protocol per cell: both programs in
       isolation, then the co-run *)
    let t0 = Unix.gettimeofday () in
    let cycles =
      List.fold_left
        (fun acc (app, con) ->
           let run ?contenders analysis =
             (Tcsim.Machine.run ~kernel ~analysis ?contenders ())
               .Tcsim.Machine.cycles
           in
           acc
           + run { Tcsim.Machine.program = app; core = 0 }
           + run { Tcsim.Machine.program = con; core = 1 }
           + run
               { Tcsim.Machine.program = app; core = 0 }
               ~contenders:[ { Tcsim.Machine.program = con; core = 1 } ])
        0 workloads
    in
    (cycles, Unix.gettimeofday () -. t0)
  in
  let stepped_cycles, stepped_wall_s = pass `Stepped in
  let event_cycles, event_wall_s = pass `Event in
  assert (stepped_cycles = event_cycles);
  let cps wall = float_of_int stepped_cycles /. Float.max wall 1e-9 in
  {
    sim_cycles = stepped_cycles;
    stepped_wall_s;
    event_wall_s;
    stepped_cps = cps stepped_wall_s;
    event_cps = cps event_wall_s;
    sim_event_speedup = stepped_wall_s /. Float.max event_wall_s 1e-9;
  }

let json_of_sim_bench b =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "sim-throughput");
      ("sim_cycles", Obs.Json.Int b.sim_cycles);
      ("stepped_wall_s", Obs.Json.Float b.stepped_wall_s);
      ("event_wall_s", Obs.Json.Float b.event_wall_s);
      ("stepped_cycles_per_s", Obs.Json.Float b.stepped_cps);
      ("event_cycles_per_s", Obs.Json.Float b.event_cps);
      ("sim_event_speedup", Obs.Json.Float b.sim_event_speedup);
    ]

let pp_sim_bench b =
  Format.printf
    "simulated %d cycles per kernel:@.  stepped %.3fs (%.1f Mcycles/s)@.  \
     event   %.3fs (%.1f Mcycles/s)@.  event-kernel speedup %.1fx@."
    b.sim_cycles b.stepped_wall_s (b.stepped_cps /. 1e6) b.event_wall_s
    (b.event_cps /. 1e6) b.sim_event_speedup

(* ------------------------------------------------------------------ *)
(* Observability overhead benchmark                                     *)
(* ------------------------------------------------------------------ *)

(* The full analysis pipeline for one figure-4 cell (isolation runs,
   counter lint, FTC + ILP-PTAC bounds, co-run validation) with the
   runtime caches cleared per repetition, timed three ways: tracer off,
   tracer on (ring sink, spans + cache instants recorded), tracer on
   with the event log at debug. Best-of-N per configuration so scheduler
   noise does not masquerade as instrumentation cost; the gate in
   [perf-check] budgets the traced/plain ratio. *)
type obs_bench = {
  obs_reps : int;
  plain_wall_s : float;  (* best-of-N, tracer + log quiet *)
  traced_wall_s : float;  (* tracer enabled *)
  logged_wall_s : float;  (* tracer enabled + log at debug *)
  traced_events : int;  (* ring occupancy after one traced rep *)
  trace_overhead : float;  (* traced / plain *)
  log_overhead : float;  (* logged / plain *)
}

let obs_bench () =
  let reps = 3 in
  let cell () =
    Runtime.Solve_cache.clear ();
    Runtime.Run_cache.clear ();
    ignore
      (Experiments.Figure4.run_row ~scenario:Platform.Scenario.scenario1
         ~load:Workload.Load_gen.High ())
  in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  Obs.Tracer.disable ();
  let plain_wall_s = best_of cell in
  Obs.Tracer.enable ();
  let traced_wall_s = best_of cell in
  let traced_events = List.length (Obs.Tracer.events ()) in
  let saved_level = Obs.Log.level () in
  Obs.Log.set_level Obs.Log.Debug;
  let logged_wall_s = best_of cell in
  Obs.Log.set_level saved_level;
  Obs.Tracer.disable ();
  {
    obs_reps = reps;
    plain_wall_s;
    traced_wall_s;
    logged_wall_s;
    traced_events;
    trace_overhead = traced_wall_s /. Float.max plain_wall_s 1e-9;
    log_overhead = logged_wall_s /. Float.max plain_wall_s 1e-9;
  }

let json_of_obs_bench b =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "obs-overhead");
      ("reps", Obs.Json.Int b.obs_reps);
      ("plain_wall_s", Obs.Json.Float b.plain_wall_s);
      ("traced_wall_s", Obs.Json.Float b.traced_wall_s);
      ("logged_wall_s", Obs.Json.Float b.logged_wall_s);
      ("traced_events", Obs.Json.Int b.traced_events);
      ("trace_overhead", Obs.Json.Float b.trace_overhead);
      ("log_overhead", Obs.Json.Float b.log_overhead);
    ]

let pp_obs_bench b =
  Format.printf
    "one figure-4 cell, cold caches, best of %d:@.  plain  %.3fs@.  traced \
     %.3fs (%.2fx, %d events)@.  logged %.3fs (%.2fx)@."
    b.obs_reps b.plain_wall_s b.traced_wall_s b.trace_overhead b.traced_events
    b.logged_wall_s b.log_overhead

(* ------------------------------------------------------------------ *)
(* Dag scheduling benchmark                                             *)
(* ------------------------------------------------------------------ *)

(* The figure-4 grid and the A1 ablation, run both ways: through the
   pipelined experiment dag and through the phase-locked barrier runner
   (each cell's simulate → model → solve → validate as one monolithic
   task). Caches are cleared before every pass so each one pays the
   full pipeline. Two ratios come out:

   - [pool_overhead]: dag wall / phased wall at jobs=1 — the pure
     bookkeeping cost of node-per-stage scheduling, machine-independent
     because both sides run sequentially in the same process;
   - [dag_speedup]: phased wall / dag wall at jobs=nproc — what
     pipelining across cells buys once stages can overlap. On a
     single-core runner this converges to ~1/pool_overhead, so the
     perf gate follows the sim-speedup precedent (fail at baseline/2)
     rather than an absolute floor. *)
type dag_bench = {
  dag_jobs : int;
  fig4_phased_1_s : float;
  fig4_dag_1_s : float;
  fig4_phased_n_s : float;
  fig4_dag_n_s : float;
  a1_phased_1_s : float;
  a1_dag_1_s : float;
  a1_phased_n_s : float;
  a1_dag_n_s : float;
  pool_overhead : float;  (* max over workloads, jobs=1 dag/phased *)
  dag_speedup : float;  (* max over workloads, jobs=n phased/dag *)
  dag_rows_equal : bool;
}

let dag_bench () =
  let cold f =
    Runtime.Solve_cache.clear ();
    Runtime.Run_cache.clear ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs = Runtime.Pool.default_jobs () in
  let fig4_phased_1, fig4_phased_1_s =
    cold (fun () -> Experiments.Figure4.run_all_phased ~jobs:1 ())
  in
  let fig4_dag_1, fig4_dag_1_s =
    cold (fun () -> Experiments.Figure4.run_all ~jobs:1 ())
  in
  let fig4_phased_n, fig4_phased_n_s =
    cold (fun () -> Experiments.Figure4.run_all_phased ~jobs ())
  in
  let fig4_dag_n, fig4_dag_n_s =
    cold (fun () -> Experiments.Figure4.run_all ~jobs ())
  in
  let a1_phased_1, a1_phased_1_s =
    cold (fun () -> Experiments.Ablations.a1_contender_info_phased ~jobs:1 ())
  in
  let a1_dag_1, a1_dag_1_s =
    cold (fun () -> Experiments.Ablations.a1_contender_info ~jobs:1 ())
  in
  let a1_phased_n, a1_phased_n_s =
    cold (fun () -> Experiments.Ablations.a1_contender_info_phased ~jobs ())
  in
  let a1_dag_n, a1_dag_n_s =
    cold (fun () -> Experiments.Ablations.a1_contender_info ~jobs ())
  in
  let ratio num den = num /. Float.max den 1e-9 in
  {
    dag_jobs = jobs;
    fig4_phased_1_s;
    fig4_dag_1_s;
    fig4_phased_n_s;
    fig4_dag_n_s;
    a1_phased_1_s;
    a1_dag_1_s;
    a1_phased_n_s;
    a1_dag_n_s;
    pool_overhead =
      Float.max
        (ratio fig4_dag_1_s fig4_phased_1_s)
        (ratio a1_dag_1_s a1_phased_1_s);
    dag_speedup =
      Float.max
        (ratio fig4_phased_n_s fig4_dag_n_s)
        (ratio a1_phased_n_s a1_dag_n_s);
    dag_rows_equal =
      fig4_phased_1 = fig4_dag_1
      && fig4_dag_1 = fig4_phased_n
      && fig4_dag_1 = fig4_dag_n
      && a1_phased_1 = a1_dag_1
      && a1_dag_1 = a1_phased_n
      && a1_dag_1 = a1_dag_n;
  }

let json_of_dag_bench b =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "dag-scheduling");
      ("jobs", Obs.Json.Int b.dag_jobs);
      ("figure4_phased_jobs1_s", Obs.Json.Float b.fig4_phased_1_s);
      ("figure4_dag_jobs1_s", Obs.Json.Float b.fig4_dag_1_s);
      ("figure4_phased_jobsN_s", Obs.Json.Float b.fig4_phased_n_s);
      ("figure4_dag_jobsN_s", Obs.Json.Float b.fig4_dag_n_s);
      ("a1_phased_jobs1_s", Obs.Json.Float b.a1_phased_1_s);
      ("a1_dag_jobs1_s", Obs.Json.Float b.a1_dag_1_s);
      ("a1_phased_jobsN_s", Obs.Json.Float b.a1_phased_n_s);
      ("a1_dag_jobsN_s", Obs.Json.Float b.a1_dag_n_s);
      ("pool_overhead", Obs.Json.Float b.pool_overhead);
      ("dag_speedup", Obs.Json.Float b.dag_speedup);
      ("rows_equal", Obs.Json.Bool b.dag_rows_equal);
    ]

let pp_dag_bench b =
  Format.printf
    "figure4 grid:  phased %.3fs / dag %.3fs (jobs=1);  phased %.3fs / dag \
     %.3fs (jobs=%d)@."
    b.fig4_phased_1_s b.fig4_dag_1_s b.fig4_phased_n_s b.fig4_dag_n_s b.dag_jobs;
  Format.printf
    "ablation A1:   phased %.3fs / dag %.3fs (jobs=1);  phased %.3fs / dag \
     %.3fs (jobs=%d)@."
    b.a1_phased_1_s b.a1_dag_1_s b.a1_phased_n_s b.a1_dag_n_s b.dag_jobs;
  Format.printf
    "pool overhead %.2fx (dag vs phased, sequential); dag speedup %.2fx \
     (jobs=%d); rows identical: %b@."
    b.pool_overhead b.dag_speedup b.dag_jobs b.dag_rows_equal

(* ------------------------------------------------------------------ *)
(* Parallel branch & bound benchmark                                    *)
(* ------------------------------------------------------------------ *)

(* A harder deterministic model family than [solver_models] — wider
   integer boxes and fractional objectives force search trees well past
   the frontier cut, so subtree mining has real work to overlap. The
   parallel solve is byte-identical to the sequential one (the qcheck
   property pins it); only the wall clock may differ. *)
let bnb_models () =
  let state = ref 0x2545F4914F6CDD1D in
  let rand bound =
    state := ((!state * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
    (!state lsr 16) mod bound
  in
  List.init 8 (fun _ ->
      let q = Numeric.Q.of_int in
      let m = Ilp.Model.create () in
      let nv = 7 + rand 3 in
      let vars =
        Array.init nv (fun i ->
            Ilp.Model.add_var m ~integer:true ~ub:(q (3 + rand 6))
              (Printf.sprintf "x%d" i))
      in
      let nr = 6 + rand 5 in
      for _ = 1 to nr do
        let terms =
          Array.to_list (Array.map (fun v -> (q (rand 11 - 4), v)) vars)
        in
        Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Le
          (q (15 + rand 45))
      done;
      Ilp.Model.set_objective m Ilp.Model.Maximize
        (Ilp.Linexpr.of_terms
           (Array.to_list
              (Array.map (fun v -> (Numeric.Q.of_ints (1 + rand 17) 2, v)) vars)));
      m)

type bnb_bench = {
  bnb_jobs : int;
  bnb_reps : int;
  bnb_nodes : int;  (* per sequential pass, jobs-invariant *)
  bnb_seq_wall_s : float;
  bnb_par_wall_s : float;
  bnb_parallel_speedup : float;
  bnb_results_equal : bool;
}

let bnb_bench () =
  let models = bnb_models () in
  let reps = 3 in
  let best solve =
    let best_t = ref infinity and res = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = List.map solve models in
      best_t := Float.min !best_t (Unix.gettimeofday () -. t0);
      res := Some r
    done;
    (Option.get !res, !best_t)
  in
  let before = Obs.Metrics.deterministic_snapshot () in
  let seq, bnb_seq_wall_s = best (fun m -> Ilp.Branch_bound.solve m) in
  let after = Obs.Metrics.deterministic_snapshot () in
  let jobs = Runtime.Pool.default_jobs () in
  let par, bnb_par_wall_s =
    Runtime.Pool.with_pool ~jobs (fun pool ->
        let parallel =
          { Ilp.Branch_bound.degree = Runtime.Pool.jobs pool;
            spawn = Runtime.Pool.spawn_raw pool }
        in
        best (fun m -> Ilp.Branch_bound.solve ~parallel m))
  in
  {
    bnb_jobs = jobs;
    bnb_reps = reps;
    bnb_nodes = counter_delta before after "ilp.bb.nodes" / reps;
    bnb_seq_wall_s;
    bnb_par_wall_s;
    bnb_parallel_speedup = bnb_seq_wall_s /. Float.max bnb_par_wall_s 1e-9;
    bnb_results_equal = seq = par;
  }

let json_of_bnb_bench b =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "bnb-parallel");
      ("jobs", Obs.Json.Int b.bnb_jobs);
      ("reps", Obs.Json.Int b.bnb_reps);
      ("nodes", Obs.Json.Int b.bnb_nodes);
      ("seq_wall_s", Obs.Json.Float b.bnb_seq_wall_s);
      ("par_wall_s", Obs.Json.Float b.bnb_par_wall_s);
      ("bnb_parallel_speedup", Obs.Json.Float b.bnb_parallel_speedup);
      ("results_equal", Obs.Json.Bool b.bnb_results_equal);
    ]

let pp_bnb_bench b =
  Format.printf
    "%d nodes, best of %d: sequential %.3fs, parallel %.3fs (%.2fx, jobs=%d); \
     results identical: %b@."
    b.bnb_nodes b.bnb_reps b.bnb_seq_wall_s b.bnb_par_wall_s
    b.bnb_parallel_speedup b.bnb_jobs b.bnb_results_equal

let results_file = "BENCH_results.json"

(* The serve, audit and bnb benchmarks also run as their own
   modes; merge such an entry into the results file by its name,
   without clobbering the regenerated stages. *)
let merge_result entry =
  let name = Obs.Json.member "name" entry in
  let existing =
    if not (Sys.file_exists results_file) then []
    else
      let ic = open_in results_file in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Obs.Json.parse s with
      | Ok (Obs.Json.List entries) ->
        List.filter (fun j -> Obs.Json.member "name" j <> name) entries
      | _ -> []
  in
  let oc = open_out results_file in
  output_string oc (Obs.Json.to_string (Obs.Json.List (existing @ [ entry ])));
  output_char oc '\n';
  close_out oc;
  let pretty = match name with Some (Obs.Json.Str s) -> s | _ -> "benchmark" in
  Format.printf "@.%s entry merged into %s@." pretty results_file

let perf_baseline_file = "bench/perf_baseline.json"

(* CI perf smoke: fail when the solver family's node or pivot total
   differs from the checked-in baseline, or pivots per branch & bound
   node regress more than 2x. The family is deterministic and pivoting
   is Bland-rule, so both totals are machine-independent — a change to
   either means the search made different decisions — unlike wall time,
   which stays advisory. *)
let run_perf_check () =
  section "Solver perf smoke (vs bench/perf_baseline.json)";
  let b = solver_bench () in
  pp_solver_bench b;
  let baseline =
    let ic = open_in perf_baseline_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Obs.Json.parse_exn s
  in
  let baseline_ppn =
    match Obs.Json.member "pivots_per_node" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing pivots_per_node"
  in
  List.iter
    (fun (key, counter) ->
       let expected =
         match Obs.Json.member key baseline with
         | Some (Obs.Json.Int i) -> i
         | _ -> failwith ("perf_baseline.json: missing " ^ key)
       in
       let current = Option.value ~default:0 (List.assoc_opt counter b.deltas) in
       Format.printf "%s: baseline %d, current %d@." key expected current;
       if current <> expected then begin
         Format.printf "FAIL: the solver family's %s changed@." key;
         exit 1
       end)
    [ ("nodes", "ilp.bb.nodes"); ("pivots", "ilp.simplex.pivots") ];
  Format.printf "pivots/node: baseline %.2f, current %.2f@." baseline_ppn
    b.pivots_per_node;
  if b.pivots_per_node > 2. *. baseline_ppn then begin
    Format.printf "FAIL: pivots per node regressed more than 2x@.";
    exit 1
  end
  else Format.printf "OK: within the 2x budget@.";
  (* Simulator smoke: the event kernel must stay within 2x of its
     baseline advantage over the stepped oracle. The two kernels run the
     same workload in the same process, so the ratio cancels machine
     speed out — unlike absolute wall time, it is comparable across CI
     runners. *)
  section "Simulator perf smoke (event vs stepped kernel)";
  let s = sim_bench () in
  pp_sim_bench s;
  let baseline_speedup =
    match Obs.Json.member "sim_event_speedup" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing sim_event_speedup"
  in
  Format.printf "event-kernel speedup: baseline %.1fx, current %.1fx@."
    baseline_speedup s.sim_event_speedup;
  if s.sim_event_speedup < baseline_speedup /. 2. then begin
    Format.printf "FAIL: event-kernel throughput regressed more than 2x@.";
    exit 1
  end
  else Format.printf "OK: within the 2x budget@.";
  (* Observability smoke: tracing a full analysis cell must stay within
     the budgeted overhead ratio. Both passes run the same workload in
     the same process (best-of-N), so machine speed cancels out of the
     ratio like it does for the kernel speedup above. *)
  section "Observability overhead smoke (traced vs plain analysis cell)";
  let o = obs_bench () in
  pp_obs_bench o;
  let overhead_max =
    match Obs.Json.member "obs_overhead_max" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing obs_overhead_max"
  in
  Format.printf "trace overhead: budget %.2fx, current %.2fx@." overhead_max
    o.trace_overhead;
  if o.trace_overhead > overhead_max then begin
    Format.printf "FAIL: tracing overhead exceeds the %.2fx budget@."
      overhead_max;
    exit 1
  end
  else Format.printf "OK: within the %.2fx budget@." overhead_max;
  (* Dag scheduling smoke: two gates. The sequential dag/phased ratio is
     a same-process comparison, so machine speed cancels and the
     [pool_overhead_max] budget is absolute. The parallel speedup
     depends on the runner's core count, so — like the kernel speedup —
     it only fails when it collapses below half its baseline. *)
  section "Dag scheduling smoke (pipelined dag vs phase-locked runner)";
  let d = dag_bench () in
  pp_dag_bench d;
  if not d.dag_rows_equal then begin
    Format.printf "FAIL: dag and phased runners disagree on the rows@.";
    exit 1
  end;
  let pool_overhead_max =
    match Obs.Json.member "pool_overhead_max" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing pool_overhead_max"
  in
  Format.printf "pool overhead: budget %.2fx, current %.2fx@."
    pool_overhead_max d.pool_overhead;
  if d.pool_overhead > pool_overhead_max then begin
    Format.printf "FAIL: dag bookkeeping exceeds the %.2fx budget@."
      pool_overhead_max;
    exit 1
  end
  else Format.printf "OK: within the %.2fx budget@." pool_overhead_max;
  let baseline_dag_speedup =
    match Obs.Json.member "dag_speedup" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing dag_speedup"
  in
  Format.printf "dag speedup: baseline %.2fx, current %.2fx (jobs=%d)@."
    baseline_dag_speedup d.dag_speedup d.dag_jobs;
  if d.dag_speedup < baseline_dag_speedup /. 2. then begin
    Format.printf "FAIL: dag pipelining speedup collapsed more than 2x@.";
    exit 1
  end
  else Format.printf "OK: within the 2x budget@.";
  (* End-to-end figure4 wall: the dag pass at jobs=nproc above is the
     whole experiment — simulations, models, solves, validation. Wall
     time is machine-dependent, so the baseline is generous and the
     gate only catches collapses past 2x. *)
  let baseline_fig4_wall =
    match Obs.Json.member "figure4_wall_s" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing figure4_wall_s"
  in
  Format.printf "figure4 end-to-end wall: baseline %.2fs, current %.2fs \
                 (jobs=%d)@."
    baseline_fig4_wall d.fig4_dag_n_s d.dag_jobs;
  if d.fig4_dag_n_s > 2. *. baseline_fig4_wall then begin
    Format.printf "FAIL: figure4 wall time regressed more than 2x@.";
    exit 1
  end
  else Format.printf "OK: within the 2x budget@.";
  (* Parallel branch & bound smoke: like the dag speedup, the ratio
     depends on the runner's core count, so it fails only when it
     collapses below half its (conservative) baseline. Determinism is a
     hard gate: the parallel pass must reproduce the sequential answers. *)
  section "Parallel branch & bound smoke (subtree mining vs sequential)";
  let pb = bnb_bench () in
  pp_bnb_bench pb;
  if not pb.bnb_results_equal then begin
    Format.printf "FAIL: parallel B&B disagrees with the sequential solve@.";
    exit 1
  end;
  let baseline_bnb_speedup =
    match Obs.Json.member "bnb_parallel_speedup" baseline with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> failwith "perf_baseline.json: missing bnb_parallel_speedup"
  in
  Format.printf "bnb parallel speedup: baseline %.2fx, current %.2fx (jobs=%d)@."
    baseline_bnb_speedup pb.bnb_parallel_speedup pb.bnb_jobs;
  if pb.bnb_parallel_speedup < baseline_bnb_speedup /. 2. then begin
    Format.printf "FAIL: parallel B&B speedup collapsed more than 2x@.";
    exit 1
  end
  else Format.printf "OK: within the 2x budget@.";
  merge_result (json_of_bnb_bench pb)

(* ------------------------------------------------------------------ *)
(* Serve replay: sustained queries/sec through a live daemon            *)
(* ------------------------------------------------------------------ *)

(* A synthetic many-request workload against an in-process daemon over a
   real Unix socket: 6 distinct queries (scenario x load level), replayed
   by 4 concurrent clients. The first pass computes each distinct query
   once (single-flight dedups the rest); the second pass is pure
   memory-tier replay — the sustained service rate. *)
let serve_clients = 4
let serve_reps_per_client = 10

let serve_queries =
  List.concat_map
    (fun scenario ->
       List.map
         (fun level ->
            Serve.Protocol.Analyze
              {
                Serve.Protocol.id =
                  scenario ^ "/" ^ Workload.Load_gen.level_to_string level;
                scenario;
                app = Serve.Protocol.App_bundled;
                contenders = [ Serve.Protocol.Con_level { level; core = 1 } ];
                models =
                  [ Serve.Protocol.Ftc; Serve.Protocol.Ilp_ptac;
                    Serve.Protocol.Ideal ];
                observed = true;
                trace = None;
              })
         Workload.Load_gen.all_levels)
    [ "scenario1"; "scenario2" ]

type serve_bench_result = {
  requests : int;  (** per pass *)
  cold_s : float;
  hot_s : float;
  engine_stats : Serve.Engine.stats;
}

let serve_bench () =
  let dir = Filename.temp_file "aurix-serve-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let addr = Serve.Server.Unix_path (Filename.concat dir "s.sock") in
  let disk = Serve.Disk_cache.open_ ~root:(Filename.concat dir "cache") () in
  let engine =
    Serve.Engine.create
      {
        Serve.Engine.default_config with
        Serve.Engine.disk = Some disk;
        persist_runtime_caches = true;
      }
  in
  let stop = Atomic.make false in
  let server =
    Thread.create (fun () -> Serve.Server.serve ~engine ~addr ~stop ()) ()
  in
  let run_pass () =
    let t0 = Unix.gettimeofday () in
    let clients =
      List.init serve_clients (fun _ ->
          Thread.create
            (fun () ->
               let c = Serve.Client.connect addr in
               Fun.protect
                 ~finally:(fun () -> Serve.Client.close c)
                 (fun () ->
                    for _ = 1 to serve_reps_per_client do
                      List.iter
                        (fun q ->
                           match Serve.Client.rpc c q with
                           | Ok (Serve.Protocol.Result _) -> ()
                           | Ok _ -> failwith "serve-replay: unexpected reply"
                           | Error e ->
                             failwith ("serve-replay: bad reply: " ^ e))
                        serve_queries
                    done))
            ())
    in
    List.iter Thread.join clients;
    Unix.gettimeofday () -. t0
  in
  let cold_s = run_pass () in
  let hot_s = run_pass () in
  Atomic.set stop true;
  Thread.join server;
  Serve.Engine.close engine;
  {
    requests = serve_clients * serve_reps_per_client * List.length serve_queries;
    cold_s;
    hot_s;
    engine_stats = Serve.Engine.stats engine;
  }

let pp_serve_bench r =
  Format.printf "requests per pass:        %d (%d clients, %d distinct queries)@."
    r.requests serve_clients (List.length serve_queries);
  Format.printf "cold pass:                %.3f s (%.0f qps)@." r.cold_s
    (float_of_int r.requests /. r.cold_s);
  Format.printf "hot pass:                 %.3f s (%.0f qps)@." r.hot_s
    (float_of_int r.requests /. r.hot_s);
  Format.printf "computed/memory/disk:     %d/%d/%d@."
    r.engine_stats.Serve.Engine.computed r.engine_stats.Serve.Engine.memory_hits
    r.engine_stats.Serve.Engine.disk_hits

let json_of_serve_bench r =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "serve-replay");
      ("requests", Obs.Json.Int r.requests);
      ("clients", Obs.Json.Int serve_clients);
      ("distinct_queries", Obs.Json.Int (List.length serve_queries));
      ("cold_wall_s", Obs.Json.Float r.cold_s);
      ("cold_qps", Obs.Json.Float (float_of_int r.requests /. r.cold_s));
      ("wall_s", Obs.Json.Float r.hot_s);
      ("qps", Obs.Json.Float (float_of_int r.requests /. r.hot_s));
      ("computed", Obs.Json.Int r.engine_stats.Serve.Engine.computed);
      ("memory_hits", Obs.Json.Int r.engine_stats.Serve.Engine.memory_hits);
      ("disk_hits", Obs.Json.Int r.engine_stats.Serve.Engine.disk_hits);
    ]

let json_of_stage (name, (t : Runtime.Telemetry.t), deltas) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str name);
      ("wall_s", Obs.Json.Float t.Runtime.Telemetry.wall_s);
      ("cpu_s", Obs.Json.Float t.Runtime.Telemetry.cpu_s);
      ("cache_hits", Obs.Json.Int t.Runtime.Telemetry.cache_hits);
      ("cache_misses", Obs.Json.Int t.Runtime.Telemetry.cache_misses);
      ("run_cache_hits", Obs.Json.Int t.Runtime.Telemetry.run_cache_hits);
      ("run_cache_misses", Obs.Json.Int t.Runtime.Telemetry.run_cache_misses);
      ( "counters",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) deltas) );
    ]

let regenerate () =
  let records =
    List.map
      (fun (name, f) ->
         let before = Obs.Metrics.deterministic_snapshot () in
         let (), t = Runtime.Telemetry.measure ~jobs:1 f in
         let after = Obs.Metrics.deterministic_snapshot () in
         (* per-stage deltas of the jobs-invariant counters: what this
            artifact simulated and solved, not what ran before it *)
         let deltas =
           List.filter_map
             (fun (k, v) ->
                let v0 = Option.value ~default:0 (List.assoc_opt k before) in
                if v <> v0 then Some (k, v - v0) else None)
             after
         in
         (name, t, deltas))
      stages
  in
  (* the solver micro-benchmark, simulator-throughput and audit-overhead
     stages ride along silently so the JSON always carries
     pivots-per-node, the kernel speedup and the certified-solve rate;
     their human-readable summaries belong to the [solver], [sim],
     [audit] and [perf-check] modes *)
  let solver = json_of_solver_bench (solver_bench ()) in
  let sim = json_of_sim_bench (sim_bench ()) in
  let audit = json_of_audit_bench (audit_bench ()) in
  let oc = open_out results_file in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.List (List.map json_of_stage records @ [ solver; sim; audit ])));
  output_char oc '\n';
  close_out oc;
  Format.printf "@.per-stage results written to %s@." results_file

(* ------------------------------------------------------------------ *)
(* Bechamel timings                                                     *)
(* ------------------------------------------------------------------ *)

(* Inputs staged outside the timed regions. *)
let lat = Platform.Latency.default

let small_app variant =
  Workload.Control_loop.build variant
    { Workload.Control_loop.default_params with Workload.Control_loop.iterations = 4 }

let staged_counters scenario =
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let app = Workload.Control_loop.app variant in
  let con = Workload.Load_gen.make ~variant ~level:Workload.Load_gen.High () in
  let a = (Mbta.Measurement.isolation ~core:0 app).Mbta.Measurement.counters in
  let b = (Mbta.Measurement.isolation ~core:1 con).Mbta.Measurement.counters in
  (a, b)

let tests () =
  let a1, b1 = staged_counters Platform.Scenario.scenario1 in
  let a2, b2 = staged_counters Platform.Scenario.scenario2 in
  let small1 = small_app Workload.Control_loop.S1 in
  let small2 = small_app Workload.Control_loop.S2 in
  let small_con =
    Workload.Control_loop.build Workload.Control_loop.S1
      (let p =
         Workload.Load_gen.params ~variant:Workload.Control_loop.S1
           ~level:Workload.Load_gen.High ~region_slot:1
       in
       { p with Workload.Control_loop.iterations = 4 })
  in
  let big_x = Numeric.Bigint.of_string "123456789123456789123456789" in
  let reference_lp () =
    let m = Ilp.Model.create () in
    let q = Numeric.Q.of_int in
    let x = Ilp.Model.add_var m "x" in
    let y = Ilp.Model.add_var m "y" in
    Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms [ (q 3, x); (q 2, y) ])
      Ilp.Model.Le (q 18);
    Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms [ (q 1, x) ]) Ilp.Model.Le (q 4);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (q 3, x); (q 5, y) ]);
    m
  in
  let lp = reference_lp () in
  [
    (* Table 2: one calibration pair measurement *)
    Test.make ~name:"table2/calibrate-pf0-data"
      (Staged.stage (fun () ->
           ignore (Mbta.Calibration.measure_pair Platform.Target.Pf0 Platform.Op.Data)));
    (* Table 6: counter collection = one isolation simulation (scaled) *)
    Test.make ~name:"table6/isolation-sim-sc1"
      (Staged.stage (fun () -> ignore (Mbta.Measurement.isolation small1)));
    Test.make ~name:"table6/isolation-sim-sc2"
      (Staged.stage (fun () -> ignore (Mbta.Measurement.isolation small2)));
    (* Figure 4 model computations from staged counter readings *)
    Test.make ~name:"figure4/ftc-model"
      (Staged.stage (fun () ->
           ignore (Contention.Ftc.contention_bound ~latency:lat ~a:a1 ())));
    Test.make ~name:"figure4/ilp-ptac-sc1"
      (Staged.stage (fun () ->
           ignore
             (Contention.Ilp_ptac.contention_bound_exn ~latency:lat
                ~scenario:Platform.Scenario.scenario1 ~a:a1 ~b:b1 ())));
    Test.make ~name:"figure4/ilp-ptac-sc2"
      (Staged.stage (fun () ->
           ignore
             (Contention.Ilp_ptac.contention_bound_exn ~latency:lat
                ~scenario:Platform.Scenario.scenario2 ~a:a2 ~b:b2 ())));
    (* Figure 4 validation: one (scaled) co-run simulation *)
    Test.make ~name:"figure4/corun-sim"
      (Staged.stage (fun () ->
           ignore
             (Mbta.Measurement.corun ~analysis:(small1, 0)
                ~contenders:[ (small_con, 1) ] ())));
    (* Ablation A4: closed-form FSB bound *)
    Test.make ~name:"ablation/fsb-model"
      (Staged.stage (fun () ->
           ignore (Contention.Fsb.contention_bound ~latency:lat ~a:a1 ~b:b1 ())));
    (* Substrate micro-benchmarks *)
    Test.make ~name:"substrate/simplex-reference-lp"
      (Staged.stage (fun () -> ignore (Ilp.Simplex.solve lp)));
    Test.make ~name:"substrate/bigint-mul"
      (Staged.stage (fun () -> ignore (Numeric.Bigint.mul big_x big_x)));
  ]

(* Parallel sweep: the Figure-4 grid through the domain pool, sequential
   vs parallel, with the solve cache cold on both sides so the wall-time
   comparison is fair. *)
let run_parallel_sweep () =
  section "Parallel sweep: Figure 4 grid, pool vs sequential";
  let sweep jobs =
    Runtime.Solve_cache.clear ();
    Runtime.Run_cache.clear ();
    Runtime.Telemetry.measure ~jobs (fun () ->
        Experiments.Figure4.run_all ~jobs ())
  in
  let seq_rows, seq_t = sweep 1 in
  let jobs = Runtime.Pool.default_jobs () in
  let par_rows, par_t = sweep jobs in
  Format.printf "sequential: %a@." Runtime.Telemetry.pp seq_t;
  Format.printf "parallel:   %a@." Runtime.Telemetry.pp par_t;
  Format.printf "speedup: %.2fx (jobs=%d); rows identical: %b@."
    (Runtime.Telemetry.speedup ~baseline:seq_t par_t)
    jobs (seq_rows = par_rows)

let run_timings () =
  run_parallel_sweep ();
  section "Bechamel timings (ns/run, OLS estimate)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let grouped = Test.make_grouped ~name:"aurix" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
         let est =
           match Analyze.OLS.estimates ols_result with
           | Some (e :: _) -> e
           | _ -> nan
         in
         (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-40s %16s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
       let pretty =
         if Float.is_nan ns then "n/a"
         else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
         else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
         else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
         else Printf.sprintf "%.0f ns" ns
       in
       Format.printf "%-40s %16s@." name pretty)
    rows

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match mode with
   | "tables" -> regenerate ()
   | "timings" -> run_timings ()
   | "solver" ->
     section "Solver micro-benchmark";
     pp_solver_bench (solver_bench ())
   | "sim" ->
     section "Simulator throughput (stepped vs event kernel)";
     pp_sim_bench (sim_bench ())
   | "perf-check" -> run_perf_check ()
   | "serve" ->
     section "Serve replay (sustained queries/sec through the daemon)";
     let r = serve_bench () in
     pp_serve_bench r;
     merge_result (json_of_serve_bench r)
   | "audit" ->
     section "Audit overhead (certified solve + independent check)";
     let r = audit_bench () in
     pp_audit_bench r;
     merge_result (json_of_audit_bench r)
   | "obs" ->
     section "Observability overhead (traced vs plain analysis cell)";
     let r = obs_bench () in
     pp_obs_bench r;
     merge_result (json_of_obs_bench r)
   | "dag" ->
     section "Dag scheduling (pipelined dag vs phase-locked runner)";
     let r = dag_bench () in
     pp_dag_bench r;
     merge_result (json_of_dag_bench r)
   | "bnb" ->
     section "Parallel branch & bound (subtree mining vs sequential)";
     let r = bnb_bench () in
     pp_bnb_bench r;
     merge_result (json_of_bnb_bench r)
   | "all" ->
     regenerate ();
     run_timings ()
   | other ->
     Format.eprintf
       "unknown mode %S (expected: tables | timings | solver | sim | audit | \
        obs | dag | bnb | perf-check | serve | all)@."
       other;
     exit 2);
  Format.printf "@.done.@."
