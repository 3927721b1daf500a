(* Workload [paper]: the paper's artefacts — Figure 4, Table 6 and
   ablations A1-A4 — regenerated from cold run and solve caches at
   jobs = nproc. The seed is unused: these inputs are the paper's. *)

open Experiments

let latency = Tcsim.Machine.default_config.Tcsim.Machine.latency
let render pp v = Format.asprintf "%a" pp v

(* One pass: the seven artefact calls, each timed, with renderings. *)
let pass ~jobs =
  let calls = ref [] in
  let timed name f render_fn =
    let v, dt = Harness.time f in
    calls := (name, dt, render_fn v) :: !calls;
    v
  in
  let rows = timed "figure4" (fun () -> Figure4.run_all ~jobs ()) (render Figure4.pp_rows) in
  ignore (timed "table6" (fun () -> Table6.run ~jobs ()) (render Table6.pp));
  ignore (timed "a1" (fun () -> Ablations.a1_contender_info ~jobs ()) (render Ablations.pp_a1));
  ignore (timed "a2" (fun () -> Ablations.a2_equality_modes ~jobs ()) (render Ablations.pp_a2));
  ignore
    (timed "a3.scenario1"
       (fun () -> Ablations.a3_multi_contender ~jobs Platform.Scenario.scenario1)
       (render Ablations.pp_a3));
  ignore
    (timed "a3.scenario2"
       (fun () -> Ablations.a3_multi_contender ~jobs Platform.Scenario.scenario2)
       (render Ablations.pp_a3));
  ignore (timed "a4" (fun () -> Ablations.a4_fsb ~jobs ()) (render Ablations.pp_a4));
  (rows, List.rev !calls)

let row_tuple (r : Figure4.row) =
  ( r.scenario,
    Workload.Load_gen.level_to_string r.load,
    r.isolation_cycles,
    r.observed_cycles,
    r.ftc.Mbta.Wcet.contention_cycles,
    r.ilp.Mbta.Wcet.contention_cycles,
    r.ideal_delta )

let check_rows (r : Report.t) ~what rows =
  Report.check r (List.map row_tuple rows = Expect.figure4_rows)
    "%s: Figure 4 rows differ from the committed rows" what;
  List.iter
    (fun (row : Figure4.row) ->
       Report.check r (Figure4.sound row) "%s: Figure 4 row %s/%s is not sound"
         what row.scenario (Workload.Load_gen.level_to_string row.load))
    rows

let digest s = Digest.to_hex (Digest.string s)

let cells =
  List.concat_map
    (fun s -> List.map (fun l -> (s, l)) Workload.Load_gen.all_levels)
    [ Platform.Scenario.scenario1; Platform.Scenario.scenario2 ]

let tasks_of ~app ~contender =
  [
    { Analysis.Program_lint.label = "app"; core = 0; program = app };
    { Analysis.Program_lint.label = "contender"; core = 1; program = contender };
  ]

(* A pass's set-up: cold caches, and the Figure 4 cells' programs built
   and pre-flight checked — the input validation every experiment opens
   with. *)
let prepare (r : Report.t) =
  Harness.clear_caches ();
  List.iter
    (fun ((scenario : Platform.Scenario.t), load) ->
       let variant = Workload.Control_loop.variant_of_scenario scenario in
       let app = Workload.Control_loop.app variant in
       let contender = Workload.Load_gen.make ~variant ~level:load () in
       let diags =
         Analysis.Preflight.check_run ~latency ~scenario ~tasks:(tasks_of ~app ~contender) ()
       in
       Report.check r (not (Analysis.Diag.has_errors diags)) "pre-flight of %s fails"
         scenario.name)
    cells

(* Passes every run makes: the tail of a pass is taken over these, so
   that its percentile does not move with how many passes a run fits. *)
let tail_passes = 24

type unit_run = {
  setup_s : float;
  wall : float;
  calls : (string * float) list;  (** artefact call times *)
  counts : (string * int) list;
}

let run_untraced (r : Report.t) ~seconds =
  let start = Harness.now () in
  let jobs = Harness.nproc in
  let after_min, rss = Harness.rss_after_min () in
  (* one untimed pass first: code and heap warm-up *)
  prepare r;
  ignore (pass ~jobs);
  let units =
    Harness.time_box ~after_min ~start ~seconds ~min_units:tail_passes (fun i ->
        Speed.sample ();
        let (), setup_s = Harness.setup (fun () -> prepare r) in
        let c0 = Counts.snapshot () in
        let (rows, calls), wall = Harness.time (fun () -> pass ~jobs) in
        let counts = Counts.diff c0 (Counts.snapshot ()) in
        check_rows r ~what:(Printf.sprintf "pass %d" i) rows;
        List.iter
          (fun (name, _, text) ->
             Report.check r
               (List.assoc_opt name Expect.paper_digests = Some (digest text))
               "pass %d: %s rendering differs from the committed digest" i name)
          calls;
        { setup_s; wall; calls = List.map (fun (name, dt, _) -> (name, dt)) calls; counts })
  in
  Speed.sample ();
  let counts = List.map (fun u -> u.counts) units in
  Report.check r
    (List.for_all (( = ) (List.hd counts)) counts)
    "deterministic counts differ between passes";
  (units, rss ())

(* --- traced pass: the calls of Figure4.add_row_nodes, one span each -- *)

(* Figure4.run_all simulates each cell as one run family — both
   isolations and the co-run — so the traced pass makes the same
   Measurement.cell_family call and probes Machine.run_family on the
   members the run cache simulated: those not yet in [seen] in this
   pass. A scenario's app is the same at every load, so its isolation
   is simulated once per scenario. *)
let family_probe (r : Report.t) seen ~cell_key ~app ~contender (cell : Mbta.Measurement.cell) =
  let task program core = { Tcsim.Machine.program; core } in
  let scenario, level = cell_key in
  let members =
    [
      (scenario ^ "/app", (task app 0, []), cell.iso_analysis);
      (scenario ^ "/" ^ level ^ "/contender", (task contender 1, []),
       List.hd cell.iso_contenders);
      (scenario ^ "/" ^ level ^ "/corun", (task app 0, [ task contender 1 ]),
       cell.Mbta.Measurement.corun);
    ]
  in
  let fresh =
    List.filter_map
      (fun (key, sim, o) ->
         if Hashtbl.mem seen key then None
         else (Hashtbl.replace seen key (); Some (sim, o)))
      members
  in
  let results =
    Tcsim.Machine.run_family
      (List.map
         (fun ((analysis, contenders), _) ->
            Tcsim.Machine.spec ~restart_contenders:(contenders = []) ~analysis ~contenders ())
         fresh)
  in
  Report.check r
    (List.map (fun (m : Tcsim.Machine.run_result) -> m.cycles) results
     = List.map (fun (_, (o : Mbta.Measurement.observation)) -> o.cycles) fresh)
    "Machine.run_family disagrees with Measurement.cell_family"

let traced_row (r : Report.t) seen ~scenario ~load =
  let open Platform in
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let app = Workload.Control_loop.app variant in
  let contender = Workload.Load_gen.make ~variant ~level:load () in
  Span.call ~layer:"analysis" ~name:"preflight" (fun () ->
      Analysis.Preflight.run ~latency ~scenario ~tasks:(tasks_of ~app ~contender) ());
  let cell =
    Span.call_probed ~layer:"mbta" ~name:"measurement.cell_family"
      ~did_work:(Span.missed "run_cache")
      (fun () ->
         Mbta.Measurement.cell_family ~analysis:(app, 0) ~contenders:[ (contender, 1) ] ())
      ~probes:
        [ ("tcsim", "machine.run_family",
           family_probe r seen
             ~cell_key:(scenario.name, Workload.Load_gen.level_to_string load)
             ~app ~contender) ]
  in
  let iso_a = cell.iso_analysis in
  let iso_b = List.hd cell.iso_contenders in
  let a = iso_a.Mbta.Measurement.counters and b = iso_b.Mbta.Measurement.counters in
  Span.call ~layer:"analysis" ~name:"counter_lint" (fun () ->
      Analysis.Preflight.guard
        (Analysis.Counter_lint.check ~latency ~scenario ~path:[ "isolation"; "app" ] a
         @ Analysis.Counter_lint.check ~latency ~scenario
             ~path:[ "isolation"; "contender" ] b));
  let is_s2 = scenario.Scenario.name = "scenario2" in
  let ftc_r =
    Span.call ~layer:"contention" ~name:"ftc" (fun () ->
        Contention.Ftc.contention_bound ~dirty:is_s2 ~latency ~a ())
  in
  let options =
    {
      Contention.Ilp_ptac.default_options with
      Contention.Ilp_ptac.dirty_lmu = b.Counters.dcache_miss_dirty > 0;
    }
  in
  let model =
    Span.call ~layer:"contention" ~name:"build_model" (fun () ->
        fst (Contention.Ilp_ptac.build_model ~options ~latency ~scenario ~a ~b ()))
  in
  Span.call ~layer:"analysis" ~name:"model_lint" (fun () ->
      Analysis.Preflight.guard
        (Analysis.Model_lint.check ~path:[ "ilp-ptac"; scenario.Scenario.name ] model));
  Twins.solves ~audit:false ~node_limit:options.node_limit
    ~slack:(Numeric.Q.of_int options.mip_slack) model;
  let ilp_r =
    Span.call ~layer:"contention" ~name:"contention_bound" (fun () ->
        Contention.Ilp_ptac.contention_bound_exn ~options ~latency ~scenario ~a ~b ())
  in
  let ideal_delta =
    Span.call ~layer:"contention" ~name:"ideal" (fun () ->
        Contention.Ideal.contention_bound ~latency ~a:iso_a.Mbta.Measurement.ground_truth
          ~b:iso_b.Mbta.Measurement.ground_truth ())
  in
  let isolation_cycles = iso_a.Mbta.Measurement.cycles in
  {
    Figure4.scenario = scenario.Scenario.name;
    load;
    isolation_cycles;
    observed_cycles = cell.corun.Mbta.Measurement.cycles;
    ftc = Mbta.Wcet.make ~isolation_cycles ~contention_cycles:ftc_r.Contention.Ftc.delta;
    ilp =
      Mbta.Wcet.make ~isolation_cycles
        ~contention_cycles:ilp_r.Contention.Ilp_ptac.delta;
    ideal_delta;
  }

let run_traced (r : Report.t) ~seconds =
  let start = Harness.now () in
  let passes =
    Harness.time_box ~start ~seconds ~min_units:1 (fun i ->
        let (), _ = Harness.setup Harness.clear_caches in
        let rt0 = Harness.runtime_now () in
        let ref_rows, untraced_wall =
          Harness.time (fun () -> Figure4.run_all ~jobs:1 ())
        in
        let runtime = Harness.runtime_delta rt0 (Harness.runtime_now ()) in
        let (), _ = Harness.setup Harness.clear_caches in
        Span.reset ();
        let c0 = Counts.snapshot () in
        let rows, wall =
          Harness.time (fun () ->
              let seen = Hashtbl.create 16 in
              List.map (fun (scenario, load) -> traced_row r seen ~scenario ~load) cells)
        in
        let counts = Counts.diff c0 (Counts.snapshot ()) in
        Report.check r (rows = ref_rows)
          "traced pass %d: rows differ from Figure4.run_all" i;
        check_rows r ~what:(Printf.sprintf "traced pass %d" i) rows;
        ( Harness.layer_metrics
            { Harness.wall; untraced_wall; counts; runtime; exact_rate = 0. },
          counts ))
  in
  Harness.report_layers r (List.map fst passes);
  let counts = List.map snd passes in
  Report.check r
    (List.for_all (( = ) (List.hd counts)) counts)
    "deterministic counts differ between traced passes";
  List.hd counts
