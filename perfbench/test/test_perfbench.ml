(* The benchmark's own checks: the tail rule, the host-speed factor,
   seeded generators, the metric catalogue against BENCHMARK.json, and
   the summary format. *)

open Perfbench

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_rule () =
  (match Stats.tail (floats 100) with
   | Some (pct, v) ->
     Alcotest.(check (float 1e-9)) "percentile" 90. pct;
     Alcotest.(check (float 1e-9)) "ten samples beyond" 90. v
   | None -> Alcotest.fail "100 samples have a tail");
  (match Stats.tail (floats 20) with
   | Some (pct, v) ->
     Alcotest.(check (float 1e-9)) "smallest tail is the median" 50. pct;
     Alcotest.(check (float 1e-9)) "value" 10. v
   | None -> Alcotest.fail "20 samples have a tail");
  Alcotest.(check bool) "19 samples are too few" true (Stats.tail (floats 19) = None);
  Alcotest.(check bool) "no samples" true (Stats.tail [] = None);
  let block k = List.map (fun x -> x +. float_of_int (20 * k)) (floats 20) in
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "median of block tails" (Some (50., 20.)) (Stats.block_tail [ block 0; block 1 ]);
  Alcotest.(check bool) "a short block has no tail" true
    (Stats.block_tail [ block 0; floats 19 ] = None);
  Alcotest.(check bool) "no blocks" true (Stats.block_tail [] = None);
  let shuffled = List.rev (floats 1000) in
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "order does not matter" (Stats.tail (floats 1000)) (Stats.tail shuffled)

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_speed_factor () =
  for _ = 1 to 3 do Speed.sample () done;
  List.iter
    (fun kernel ->
       let samples = Speed.samples kernel in
       let ref_ = Speed.reference_s kernel in
       Alcotest.(check int) "one sample per call" 3 (List.length samples);
       Alcotest.(check bool) "kernel takes time" true (List.for_all (fun t -> t > 0.) samples);
       Alcotest.(check (float 1e-12))
         "average: reference over the mean sample" (ref_ /. Stats.mean samples)
         (Speed.factor (Average kernel)))
    [ Speed.Serial; Speed.Parallel ];
  Alcotest.(check (float 0.)) "unscaled" 1. (Speed.factor Unscaled)

let corpus_text seed =
  String.concat "\n"
    (List.concat_map
       (fun i -> List.map Gen.instance_to_string (Gen.slice ~seed i))
       [ 0; 1; 2 ])

let test_generators_repeat () =
  Alcotest.(check string) "corpus, same seed" (corpus_text 7) (corpus_text 7);
  Alcotest.(check bool) "corpus, other seed" false (corpus_text 7 = corpus_text 8);
  let mix seed = Gen.serve_mix_to_string (Gen.serve_mix ~seed) in
  Alcotest.(check string) "serve mix, same seed" (mix 7) (mix 7);
  Alcotest.(check bool) "serve mix, other seed" false (mix 7 = mix 8)

let test_serve_mix_shape () =
  let m = Gen.serve_mix ~seed:3 in
  Alcotest.(check int) "distinct queries" 24 (List.length m.distinct);
  Alcotest.(check int) "distinct ids" 24
    (List.length (List.sort_uniq compare (List.map (fun q -> q.Serve.Protocol.id) m.distinct)));
  let hot = List.concat_map Array.to_list (Array.to_list m.hot) in
  Alcotest.(check int) "hot requests" (Gen.hot_rounds * 24) (List.length hot);
  List.iter
    (fun (q : Serve.Protocol.analyze) ->
       Alcotest.(check int) ("round-robin " ^ q.id) Gen.hot_rounds
         (List.length (List.filter (fun (h : Serve.Protocol.analyze) -> h.id = q.id) hot)))
    m.distinct

(* A version's record trips on changed counts; another version's does not. *)
let test_count_record () =
  let dir = "count-records" in
  let file version = Counts.record_file ~version ~workload:"w" ~seed:1 ~trace:false in
  List.iter
    (fun v -> try Sys.remove (Filename.concat dir (file v)) with Sys_error _ -> ())
    [ "old"; "new" ];
  let first = [ ("pass", [ ("tcsim.events", 10) ]) ] in
  let fewer = [ ("pass", [ ("tcsim.events", 7) ]) ] in
  let check what expected units v =
    Alcotest.(check (list string)) what expected (Counts.check_record ~dir ~file:(file v) units)
  in
  check "first run" [] first "old";
  check "same version, same counts" [] first "old";
  check "other version, other counts" [] fewer "new";
  check "same version, other counts" [ "pass" ] fewer "old";
  Alcotest.(check bool) "versions kept apart" true (file "old" <> file "new")

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let benchmark_json () =
  Obs.Json.parse_exn (read_file (Filename.concat "../.." "BENCHMARK.json"))

let declared section =
  match Obs.Json.member section (benchmark_json ()) with
  | Some (Obs.Json.List ms) ->
    List.map
      (fun m ->
         let str k =
           match Obs.Json.member k m with Some (Obs.Json.Str s) -> s | _ -> ""
         in
         (str "name", str "unit", str "better"))
      ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" section

let catalogued ms =
  List.map
    (fun (m : Catalogue.metric) ->
       (m.name, m.unit_, match m.better with Catalogue.Lower -> "lower" | Higher -> "higher"))
    ms

let test_metric_names () =
  List.iter
    (fun (m : Catalogue.metric) ->
       Alcotest.(check bool) ("valid name " ^ m.name) true (Catalogue.valid_name m.name))
    (Catalogue.end_to_end @ Catalogue.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) ("invalid " ^ bad) false (Catalogue.valid_name bad))
    [ ""; "_x"; "a b"; "p99/s"; String.make 65 'a' ];
  Alcotest.(check (list (triple string string string)))
    "end_to_end matches BENCHMARK.json" (catalogued Catalogue.end_to_end)
    (declared "end_to_end");
  Alcotest.(check (list (triple string string string)))
    "per_layer matches BENCHMARK.json" (catalogued Catalogue.per_layer)
    (declared "per_layer")

let test_summary_parses () =
  let r = Report.create () in
  Report.check r true "ok";
  List.iter (fun (m : Catalogue.metric) -> Report.metric r m.name 1.25) Catalogue.end_to_end;
  let line = Report.summary r in
  match Obs.Json.parse line with
  | Ok j ->
    Alcotest.(check bool) "correct" true (Obs.Json.member "correct" j = Some (Obs.Json.Bool true));
    Alcotest.(check bool) "attempted" true (Obs.Json.member "attempted" j = Some (Obs.Json.Int 1));
    (match Obs.Json.member "metrics" j with
     | Some (Obs.Json.Obj ms) ->
       Alcotest.(check (list string)) "every end-to-end metric"
         (List.map (fun (m : Catalogue.metric) -> m.name) Catalogue.end_to_end)
         (List.map fst ms)
     | _ -> Alcotest.fail "no metrics object")
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median ] );
      ( "speed", [ Alcotest.test_case "scaling factor" `Quick test_speed_factor ] );
      ( "generators",
        [ Alcotest.test_case "byte-identical per seed" `Quick test_generators_repeat;
          Alcotest.test_case "serve mix shape" `Quick test_serve_mix_shape ] );
      ( "counts",
        [ Alcotest.test_case "record per program version" `Quick test_count_record ] );
      ( "report",
        [ Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "summary parses" `Quick test_summary_parses ] );
    ]
