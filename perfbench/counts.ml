(* Deterministic counts: deltas of the program's jobs-invariant counters
   over one unit of work (a pass, a corpus slice, a serve cycle). They
   must repeat exactly for a seed — within a run and across runs of the
   same program, which are compared through a record kept under
   [.perfbench/counts]. A change to the program may legitimately change
   them, so the record is kept per program version. *)

let tracked =
  [
    "tcsim.events"; "tcsim.cycles"; "ilp.bb.nodes"; "ilp.simplex.pivots";
    "ilp.bb.node_limit_hits"; "serve.rejects";
  ]

let tracked_prefixes =
  [ "run_cache."; "solve_cache."; "ilp.cache."; "audit."; "serve.query." ]

let keep name =
  List.mem name tracked
  || List.exists
       (fun p -> String.length name >= String.length p
                 && String.sub name 0 (String.length p) = p)
       tracked_prefixes

(* [run_cache.entries]-style occupancy gauges are levels, not work *)
let snapshot () =
  List.filter
    (fun (n, _) -> keep n && not (String.ends_with ~suffix:".entries" n))
    (Obs.Metrics.deterministic_snapshot ())

let diff before after =
  List.map
    (fun (n, v) -> (n, v - (try List.assoc n before with Not_found -> 0)))
    after

let to_json counts =
  Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Int v)) counts)

let of_json = function
  | Obs.Json.Obj kvs ->
    List.filter_map
      (function n, Obs.Json.Int v -> Some (n, v) | _ -> None)
      kvs
  | _ -> []

let dir = Filename.concat ".perfbench" "counts"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* The record of one program version, workload, seed and tracing mode.
   [version] identifies the program, e.g. a digest of its executable. *)
let record_file ~version ~workload ~seed ~trace =
  Printf.sprintf "%s-seed%d-trace%d-%s.json" workload seed (if trace then 1 else 0) version

(* Compares [units] (unit key -> counts) against the record in [file]
   under [dir], then adds any new units to it. Returns the keys whose
   counts disagree. *)
let check_record ?(dir = dir) ~file units =
  let path = Filename.concat dir file in
  let previous =
    if Sys.file_exists path then
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.parse s with
      | Ok (Obs.Json.Obj kvs) -> List.map (fun (k, v) -> (k, of_json v)) kvs
      | _ -> []
    else []
  in
  let mismatched =
    List.filter_map
      (fun (k, c) ->
         match List.assoc_opt k previous with
         | Some p when p <> c -> Some k
         | _ -> None)
      units
  in
  let merged =
    previous
    @ List.filter (fun (k, _) -> not (List.mem_assoc k previous)) units
  in
  mkdir_p dir;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj (List.map (fun (k, c) -> (k, to_json c)) merged)));
  close_out oc;
  Sys.rename tmp path;
  mismatched
