(* Benchmark-side spans around calls into the program's public entry
   points. Nothing inside the program is instrumented: each span times
   one call made from the benchmark's own code and records the deltas of
   a few of the program's counters (and of this domain's minor-heap
   allocation) across it.

   A layer's self time is its spans' durations minus the time covered by
   their children. Besides properly nested children, a span can carry
   {e probes}: direct calls of an inner entry point on the same inputs,
   made after the outer call returns, that repeat work the outer call
   did internally (Machine.run_family under Measurement.cell_family). A
   probe counts as a child of the span it measures: its duration is the
   inner layer's self time and is taken out of the outer span's self
   time, and, being a repetition, out of the traced wall time as well. *)

type t = {
  layer : string;
  name : string;
  probe : bool;
  mutable dur : float;  (** seconds *)
  mutable covered : float;  (** seconds covered by children and probes *)
  mutable counters : (string * int) list;  (** counter deltas across the call *)
  mutable minor_words : float;
}

let watched =
  [
    "tcsim.runs"; "tcsim.events"; "tcsim.cycles"; "ilp.bb.solves"; "ilp.bb.nodes";
    "ilp.simplex.pivots"; "ilp.bb.node_limit_hits"; "ilp.bb.engine_restarts";
    "ilp.simplex.dense_fallbacks"; "run_cache.hits"; "run_cache.misses";
    "solve_cache.hits"; "solve_cache.misses"; "audit.verified";
    "audit.failed"; "audit.skipped"; "serve.query.memory_hits";
  ]

let handles = List.map (fun n -> (n, Obs.Metrics.counter n)) watched
let read () = List.map (fun (n, c) -> (n, Obs.Metrics.value c)) handles

let spans : t list ref = ref []  (* finished, newest first *)
let open_ : t list ref = ref []  (* enclosing spans, innermost first *)
let probe_s = ref 0.

let reset () =
  spans := [];
  open_ := [];
  probe_s := 0.

let measure ~layer ~name ~probe f =
  let s = { layer; name; probe; dur = 0.; covered = 0.; counters = []; minor_words = 0. } in
  let c0 = read () and w0 = Gc.minor_words () in
  open_ := s :: !open_;
  let t0 = Clock.now () in
  let finish () =
    s.dur <- Clock.now () -. t0;
    s.minor_words <- Gc.minor_words () -. w0;
    s.counters <- List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 (read ());
    open_ := List.tl !open_;
    (if not probe then
       match !open_ with p :: _ -> p.covered <- p.covered +. s.dur | [] -> ());
    spans := s :: !spans
  in
  match f () with
  | v ->
    finish ();
    (v, s)
  | exception e ->
    finish ();
    raise e

(* [call ~layer ~name f] runs [f] inside a span and returns its value. *)
let call ~layer ~name f = fst (measure ~layer ~name ~probe:false f)

(* [call_probed ~layer ~name f ~probes] runs [f] in a span, then each
   probe [(layer, name, g)] as a probe child of it; [g] receives [f]'s
   result so callers can check the probe agrees with the outer call.
   Probes run only if [did_work] holds for the outer span: a call that
   was answered from a cache did none of the work they would repeat. *)
let call_probed ?(did_work = fun _ -> true) ~layer ~name f ~probes =
  let v, outer = measure ~layer ~name ~probe:false f in
  if did_work outer then
    List.iter
      (fun (player, pname, g) ->
         let (), p = measure ~layer:player ~name:pname ~probe:true (fun () -> g v) in
         outer.covered <- outer.covered +. p.dur;
         probe_s := !probe_s +. p.dur)
      probes;
  v

let all () = List.rev !spans
(* Not clamped at 0: a probe can run slower than the call it repeats
   (the heap differs), and clamping would break the accounting of self
   times against the traced wall time. *)
let self s = s.dur -. s.covered
let counter s name = try List.assoc name s.counters with Not_found -> 0
let missed cache s = counter s (cache ^ ".misses") > 0

let of_layer layer = List.filter (fun s -> s.layer = layer) (all ())
let named name = List.filter (fun s -> s.name = name) (all ())
let self_of spans = List.fold_left (fun acc s -> acc +. self s) 0. spans
let total_self () = self_of (all ())
let sum_counter spans name =
  List.fold_left (fun acc s -> acc + counter s name) 0 spans
let probe_seconds () = !probe_s

(* The recorded spans, oldest first, for the run's detail file. *)
let to_json () =
  Obs.Json.List
    (List.map
       (fun s ->
          Obs.Json.Obj
            [
              ("layer", Obs.Json.Str s.layer);
              ("name", Obs.Json.Str s.name);
              ("dur_s", Obs.Json.Float s.dur);
              ("self_s", Obs.Json.Float (self s));
              ("probe", Obs.Json.Bool s.probe);
            ])
       (all ()))
