(* Run bookkeeping and output. Every correctness check is one attempted
   operation; a failed check is one failed operation and makes the
   command exit non-zero. The last line of standard output is the JSON
   summary; the human-readable lines before it name every metric with
   its unit, including the per-workload figures that are not gated. *)

type t = {
  mutable attempted : int;
  mutable failures : string list;
  mutable metrics : (string * float) list;  (** gated, in catalogue order *)
  mutable extras : (string * float * string) list;  (** name, value, unit *)
  mutable details : (string * Obs.Json.t) list;
}

let create () =
  { attempted = 0; failures = []; metrics = []; extras = []; details = [] }

let check t ok fmt =
  Format.kasprintf
    (fun msg ->
       t.attempted <- t.attempted + 1;
       if not ok then begin
         t.failures <- msg :: t.failures;
         Format.eprintf "check failed: %s@." msg
       end)
    fmt

let metric t name v = t.metrics <- t.metrics @ [ (name, v) ]
let extra t name v unit_ = t.extras <- t.extras @ [ (name, v, unit_) ]
let detail t k v = t.details <- t.details @ [ (k, v) ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Seconds of CPU time the hypervisor took from this virtual machine
   (the steal column of /proc/stat), summed over all CPUs: it explains
   a run whose timings stand out. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
     | _ :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
       float_of_string steal /. 100.
     | _ -> 0.)

let json_float v = if Float.is_integer v then Obs.Json.Int (int_of_float v) else Obs.Json.Float v

let summary_json t =
  let unit_of name = (Catalogue.find name).Catalogue.unit_ in
  let failed = List.length t.failures in
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (failed = 0));
      ("attempted", Obs.Json.Int (max 1 t.attempted));
      ("failed", Obs.Json.Int failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (n, v) ->
                ( n,
                  Obs.Json.Obj
                    [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str (unit_of n)) ] ))
             t.metrics) );
    ]

let summary t = Obs.Json.to_string (summary_json t)

(* Prints the report and writes it, with details, to [.perfbench/results]. *)
let emit t ~workload ~seed ~trace ~expected =
  List.iter
    (fun (m : Catalogue.metric) ->
       if not (List.mem_assoc m.name t.metrics) then
         failwith ("metric not measured: " ^ m.name))
    expected;
  let unit_of name = (Catalogue.find name).Catalogue.unit_ in
  List.iter
    (fun (n, v) -> Printf.printf "%-32s %14.6g %s\n" n v (unit_of n))
    t.metrics;
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %14.6g %s\n" n v u) t.extras;
  let summary = summary_json t in
  let failed = List.length t.failures in
  let full =
    Obs.Json.Obj
      ([
        ("workload", Obs.Json.Str workload);
        ("seed", Obs.Json.Int seed);
        ("trace", Obs.Json.Bool trace);
        ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
        ("summary", summary);
        ( "extras",
          Obs.Json.Obj
            (List.map
               (fun (n, v, u) ->
                  (n, Obs.Json.Obj [ ("value", json_float v); ("unit", Obs.Json.Str u) ]))
               t.extras) );
        ("failures", Obs.Json.List (List.rev_map (fun s -> Obs.Json.Str s) t.failures));
      ]
      @ t.details)
  in
  let dir = Filename.concat ".perfbench" "results" in
  Counts.mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0))
  in
  let oc = open_out_bin path in
  output_string oc (Obs.Json.to_string full);
  output_char oc '\n';
  close_out oc;
  print_endline (Obs.Json.to_string summary);
  failed = 0
