(* The repository benchmark's command line:

     main.exe --workload paper|ilp_corpus|serve --seed N --seconds S --trace 0|1

   Prints every metric by name with its unit, then one JSON summary line;
   exits 1 when a correctness check failed. [main.exe expect] prints the
   committed expectations (expect.ml) regenerated from the program. *)

open Perfbench

let ms = List.map (fun s -> s *. 1e3)

(* [op_p50_ref_ms] over all [samples] (in ms); [op_tail_ref_ms] is the
   median tail of equal [blocks], so that its percentile does not move
   with the number of units a run fits. They are scaled to the host
   speed by [p50] and [tail]; the raw figures are printed beside them,
   and returned. *)
let latency_metrics (r : Report.t) ~what ~p50:p50_scale ~tail:tail_scale ~samples ~blocks =
  let p50 = Stats.median samples in
  let tail =
    match Stats.block_tail blocks with
    | Some (pct, v) ->
      Report.extra r "op_tail_percentile" pct "%";
      Report.extra r "op_tail_blocks" (float_of_int (List.length blocks)) "count";
      v
    | None ->
      Report.check r false "%s: too few samples for a tail" what;
      List.fold_left Float.max 0. samples
  in
  Report.metric r "op_p50_ref_ms" (p50 *. Speed.factor p50_scale);
  Report.metric r "op_tail_ref_ms" (tail *. Speed.factor tail_scale);
  Report.extra r "op_p50_ms" p50 "ms";
  Report.extra r "op_tail_ms" tail "ms";
  Report.extra r "op_samples" (float_of_int (List.length samples)) "count";
  (p50, tail)

(* A gated time: the median of [walls], scaled to the host speed by
   [scale]; the raw median is printed as [raw]. *)
let timed_metric (r : Report.t) name ~raw ~scale walls =
  let m = Stats.median walls in
  Report.metric r name (m *. Speed.factor scale);
  Report.extra r raw m "s"

(* The program version the count record is kept for: the executable
   links the whole program, so its digest changes with any of it. *)
let version () = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 16

let record (r : Report.t) ~workload ~seed ~trace units =
  let version = version () in
  let file = Counts.record_file ~version ~workload ~seed ~trace in
  List.iter
    (fun k -> Report.check r false "deterministic counts of %s differ from an earlier run" k)
    (Counts.check_record ~file units);
  Report.detail r "program_version" (Obs.Json.Str version);
  Report.detail r "counts"
    (Obs.Json.Obj (List.map (fun (k, c) -> (k, Counts.to_json c)) units))

let paper (r : Report.t) ~seconds ~trace =
  if trace then [ ("pass", W_paper.run_traced r ~seconds) ]
  else begin
    let units, rss = W_paper.run_untraced r ~seconds in
    let walls = List.map (fun (u : W_paper.unit_run) -> u.wall) units in
    (* set-ups are not scaled: a step of milliseconds fits between the
       host's slow stretches, and scaling only added the kernel's noise *)
    Report.metric r "setup_s"
      (Stats.median (List.map (fun (u : W_paper.unit_run) -> u.setup_s) units));
    Report.metric r "peak_rss_mb" rss;
    timed_metric r "pass_ref_s" ~raw:"pass_wall_s" ~scale:(Average Parallel) walls;
    (* the user's operation is regenerating the artefacts: one pass; the
       latencies are those of the first [W_paper.tail_passes], so that
       the median and the tail describe the same passes *)
    let first = ms (List.filteri (fun i _ -> i < W_paper.tail_passes) walls) in
    ignore
    @@ latency_metrics r ~what:"paper" ~p50:(Average Parallel) ~tail:(Average Parallel)
         ~samples:first ~blocks:[ first ];
    let calls = List.concat_map (fun (u : W_paper.unit_run) -> u.calls) units in
    Report.extra r "paper.artefact_p50_ms" (Stats.median (ms (List.map snd calls))) "ms";
    Report.extra r "paper_wall_s" (Stats.median walls) "s";
    Report.detail r "pass_walls_s" (Obs.Json.List (List.map (fun w -> Obs.Json.Float w) walls));
    Report.extra r "passes" (float_of_int (List.length units)) "count";
    List.iter
      (fun (name, _) ->
         Report.extra r ("paper." ^ name ^ "_ms")
           (Stats.median (ms (List.map snd (List.filter (fun (n, _) -> n = name) calls))))
           "ms")
      (List.hd units).calls;
    [ ("pass", (List.hd units).counts) ]
  end

let ilp_corpus (r : Report.t) ~seed ~seconds ~trace =
  if trace then W_ilp.run_traced r ~seed ~seconds
  else begin
    let { W_ilp.passes; rss_mb; seeded } = W_ilp.run_untraced r ~seed ~seconds in
    let solves units =
      List.concat_map
        (fun (u : W_ilp.slice_run) ->
           List.map (fun (a : W_ilp.answer) -> a.seconds) (u.plain @ u.audited))
        units
    in
    let wall units = List.fold_left (fun a (u : W_ilp.slice_run) -> a +. u.wall) 0. units in
    let audited units = List.concat_map (fun (u : W_ilp.slice_run) -> u.audited) units in
    let over units = List.fold_left (fun a (u : W_ilp.slice_run) -> a + u.over_ftc) 0 units in
    let n l = float_of_int (List.length l) in
    let all = List.concat passes and first = List.hd passes in
    let counts = List.map (List.map (fun (u : W_ilp.slice_run) -> u.counts)) passes in
    Report.check r
      (List.for_all (( = ) (List.hd counts)) counts)
      "deterministic counts differ between anchor passes";
    Report.metric r "setup_s"
      (Stats.median (List.map (fun (u : W_ilp.slice_run) -> u.setup_s) all));
    Report.metric r "peak_rss_mb" rss_mb;
    (* one operation bounds one pair both ways; a single solve of a few
       ms is dominated by the scheduling noise of the host *)
    let pair_walls pass =
      List.concat_map
        (fun (u : W_ilp.slice_run) ->
           List.map2
             (fun (p : W_ilp.answer) (a : W_ilp.answer) -> (p.seconds +. a.seconds) *. 1e3)
             u.plain u.audited)
        pass
    in
    (* The median pass: each pair's median over the run's passes. A slow
       stretch of the host lands on a few pairs of one pass, and the
       heavy pairs are so few that it moved a whole pass's time and tail
       by a fifth; per-pair medians skip it. Most solves are one task:
       the serial kernel. Its mean, not its median: in three sets of ten
       runs, one under heavy steal, it held the spread of the pass, p50
       and tail between runs at .10 or less, the median parallel kernel
       at .18. *)
    let per_pass = List.map (fun p -> Array.of_list (pair_walls p)) passes in
    let median_pass =
      List.init
        (Array.length (List.hd per_pass))
        (fun k -> Stats.median (List.map (fun p -> p.(k)) per_pass))
    in
    let scale = Speed.Average Serial in
    let sum = List.fold_left ( +. ) 0. median_pass /. 1e3 in
    Report.metric r "pass_ref_s" (sum *. Speed.factor scale);
    Report.extra r "pass_wall_s" sum "s";
    ignore
    @@ latency_metrics r ~what:"ilp_corpus anchor" ~p50:scale ~tail:scale ~samples:median_pass
         ~blocks:[ median_pass ];
    let pass_wall = Stats.median (List.map wall passes) in
    Report.extra r "passes" (n passes) "count";
    Report.extra r "ilp_corpus_wall_s" pass_wall "s";
    Report.extra r "ilp_solve_p50_ms" (Stats.median (ms (solves all))) "ms";
    (match Stats.block_tail (List.map (fun p -> ms (solves p)) passes) with
     | Some (pct, v) ->
       Report.extra r "ilp_solve_tail_ms" v "ms";
       Report.extra r "ilp_solve_tail_percentile" pct "%"
     | None -> ());
    Report.extra r "ilp_exact_rate" (W_ilp.exact_rate (audited first)) "ratio";
    Report.extra r "ilp_over_ftc" (float_of_int (over first)) "count";
    Report.extra r "seeded.instances" (n seeded.audited) "count";
    Report.extra r "seeded.wall_s" seeded.wall "s";
    Report.extra r "seeded.solve_p50_ms" (Stats.median (ms (solves [ seeded ]))) "ms";
    Report.extra r "seeded.exact_rate" (W_ilp.exact_rate seeded.audited) "ratio";
    Report.extra r "seeded.over_ftc" (float_of_int seeded.over_ftc) "count";
    Report.detail r "pass_walls_s" (Obs.Json.List (List.map (fun p -> Obs.Json.Float (wall p)) passes));
    Report.detail r "pair_walls_ms"
      (Obs.Json.List
         (List.map
            (fun p -> Obs.Json.List (Array.to_list (Array.map (fun w -> Obs.Json.Float w) p)))
            per_pass));
    List.mapi (fun i (u : W_ilp.slice_run) -> (Printf.sprintf "anchor%d" i, u.counts)) first
    @ [ ("seeded0", seeded.counts) ]
  end

let serve (r : Report.t) ~seed ~seconds ~trace =
  if trace then [ ("cycle", W_serve.run_traced r ~seed ~seconds) ]
  else begin
    let mix, cycles, rss = W_serve.run_untraced r ~seed ~seconds in
    let med f = Stats.median (List.map f cycles) in
    let counts = List.map (fun (c : W_serve.cycle) -> c.counts) cycles in
    Report.check r
      (List.for_all (( = ) (List.hd counts)) counts)
      "deterministic counts differ between cycles";
    let latencies = List.concat_map (fun (c : W_serve.cycle) -> c.hot_latencies) cycles in
    let blocks = List.concat_map (Stats.blocks ~size:Gen.hot_block) latencies in
    (* the fastest daemon start: a start is a few thread and socket
       hand-offs, and while the hypervisor takes CPU time from the host
       most of a run's starts wait milliseconds for one of them; even on
       a quiet host their median switched between 0.6 and 1.1 ms within
       a run *)
    let starts = List.concat_map (fun (c : W_serve.cycle) -> c.setup_s) cycles in
    let fastest = List.fold_left Float.min infinity starts in
    Report.metric r "setup_s" fastest;
    Report.extra r "setup_median_s" (Stats.median starts) "s";
    Report.detail r "setup_walls_s" (Obs.Json.List (List.map (fun w -> Obs.Json.Float w) starts));
    Report.metric r "peak_rss_mb" rss;
    timed_metric r "pass_ref_s" ~raw:"pass_wall_s" ~scale:(Average Parallel)
      (List.map (fun (c : W_serve.cycle) -> c.cold_s) cycles);
    let hot_p50, hot_tail =
      latency_metrics r ~what:"serve hot phase" ~p50:Unscaled ~tail:(Average Serial)
        ~samples:(ms (List.concat_map Array.to_list latencies)) ~blocks:(List.map ms blocks)
    in
    let n l = float_of_int (List.length l) in
    let cold_n = n mix.distinct +. n mix.lint_fail in
    let hot_n = float_of_int (Array.fold_left (fun a q -> a + Array.length q) 0 mix.hot) in
    Report.extra r "serve_cold_qps" (med (fun c -> cold_n /. c.cold_s)) "1/s";
    Report.extra r "serve_hot_qps" (med (fun c -> hot_n /. c.hot_s)) "1/s";
    Report.extra r "serve_disk_qps" (med (fun c -> n mix.distinct /. c.disk_s)) "1/s";
    Report.extra r "serve_hot_p50_us" (hot_p50 *. 1e3) "us";
    Report.extra r "serve_hot_tail_us" (hot_tail *. 1e3) "us";
    Report.extra r "cycles" (n cycles) "count";
    [ ("cycle", List.hd counts) ]
  end

let expect () =
  let _, calls = W_paper.pass ~jobs:Harness.nproc in
  let rows, _ = W_paper.pass ~jobs:1 in
  print_string "(* Committed expectations, printed by [main.exe expect]. *)\n\n";
  print_string "let paper_digests =\n  [\n";
  List.iter
    (fun (name, _, text) -> Printf.printf "    (%S, %S);\n" name (W_paper.digest text))
    calls;
  print_string "  ]\n\nlet figure4_rows =\n  [\n";
  List.iter
    (fun row ->
       let s, l, i, o, f, p, d = W_paper.row_tuple row in
       Printf.printf "    (%S, %S, %d, %d, %d, %d, %d);\n" s l i o f p d)
    rows;
  print_string "  ]\n"

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "expect" then (expect (); exit 0);
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let usage =
    "main.exe --workload paper|ilp_corpus|serve --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " paper, ilp_corpus or serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring time per run");
      ("--trace", Arg.Set_int trace, " 1: traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then (prerr_endline usage; exit 2);
  let seconds = float_of_int !seconds and seed = !seed and trace = !trace = 1 in
  let r = Report.create () in
  let steal0 = Report.steal_s () in
  let units =
    match !workload with
    | "paper" -> paper r ~seconds ~trace
    | "ilp_corpus" -> ilp_corpus r ~seed ~seconds ~trace
    | "serve" -> serve r ~seed ~seconds ~trace
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  record r ~workload:!workload ~seed ~trace units;
  Report.extra r "host.steal_s" (Report.steal_s () -. steal0) "s";
  if not trace then begin
    let ms kind = List.rev_map (fun w -> Obs.Json.Float (w *. 1e3)) (Speed.samples kind) in
    Report.extra r "host.kernel_serial_ms" (Stats.mean (Speed.samples Serial) *. 1e3) "ms";
    Report.extra r "host.kernel_parallel_ms" (Stats.mean (Speed.samples Parallel) *. 1e3) "ms";
    Report.detail r "kernel_serial_ms" (Obs.Json.List (ms Serial));
    Report.detail r "kernel_parallel_ms" (Obs.Json.List (ms Parallel))
  end;
  if trace then Report.detail r "spans_of_last_pass" (Span.to_json ());
  let expected = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  let ok = Report.emit r ~workload:!workload ~seed ~trace ~expected in
  exit (if ok then 0 else 1)
