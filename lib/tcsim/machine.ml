open Platform

type config = { latency : Latency.t; cores : Core_model.config array }

let default_config =
  {
    latency = Latency.default;
    cores =
      [| Core_model.p16_config; Core_model.p16_config; Core_model.e16_config |];
  }

type task = { program : Program.t; core : int }

type core_result = {
  counters : Counters.t;
  profile : Access_profile.t;
  restarts : int;
}

type run_result = {
  cycles : int;
  analysis : core_result;
  contenders : (int * core_result) list;
  trace : Trace.t;
}

exception Cycle_limit_exceeded of int

type kernel = [ `Stepped | `Event ]

let kernel_of_string = function
  | "stepped" -> Some `Stepped
  | "event" -> Some `Event
  | _ -> None

let kernel_to_string = function `Stepped -> "stepped" | `Event -> "event"

(* Process-wide default, overridable per run. The event kernel is the
   production default; AURIX_KERNEL=stepped re-pins the cycle-accurate
   oracle for differential debugging without touching call sites. *)
let default_kernel_ref =
  ref
    (match Option.bind (Sys.getenv_opt "AURIX_KERNEL") kernel_of_string with
     | Some k -> k
     | None -> `Event)

let default_kernel () = !default_kernel_ref
let set_default_kernel k = default_kernel_ref := k
let default_max_cycles = 200_000_000

let m_runs = Obs.Metrics.counter "tcsim.runs"
let m_cycles = Obs.Metrics.counter "tcsim.cycles"
let m_events = Obs.Metrics.counter "tcsim.events"
let m_skipped = Obs.Metrics.counter "tcsim.skipped_cycles"

(* The seed implementation: every core and the crossbar stepped at every
   cycle. Kept as the differential-testing oracle for the event kernel.
   [cores.(0)] is the analysis core, the rest are contenders in order. *)
let run_stepped ~max_cycles ~restart_contenders ~sri cores =
  let analysis_core = cores.(0) in
  let cycle = ref 0 in
  while not (Core_model.finished analysis_core) do
    if !cycle > max_cycles then raise (Cycle_limit_exceeded !cycle);
    Sri.step sri ~cycle:!cycle;
    Core_model.step analysis_core ~cycle:!cycle;
    for k = 1 to Array.length cores - 1 do
      let c = cores.(k) in
      Core_model.step c ~cycle:!cycle;
      if Core_model.finished c && restart_contenders then Core_model.restart c
    done;
    incr cycle
  done

(* Event-driven kernel: jump the clock to the earliest pending event —
   a core wake-up or an SRI grant slot — instead of ticking every cycle.
   Processing order within an event cycle mirrors the stepped loop
   exactly (grants, then the analysis core, then contenders in order),
   so arbitration and counters are bit-identical; see DESIGN.md
   "Simulator kernel" for the completeness argument. *)
let run_event ~max_cycles ~restart_contenders ~sri cores =
  let analysis_core = cores.(0) in
  (* The wakes taken for the clock jump also pick the cores to advance
     at [t]: a grant at [t] moves a queued core's wake from max_int to a
     completion cycle past [t], and no core's action changes another
     core's wake, so [wake c = t] holds before the grants iff after. *)
  let wakes = Array.make (Array.length cores) max_int in
  let events = ref 0 and skipped = ref 0 in
  let last = ref (-1) in
  Fun.protect
    ~finally:(fun () ->
        Obs.Metrics.add m_events !events;
        Obs.Metrics.add m_skipped !skipped)
    (fun () ->
       while not (Core_model.finished analysis_core) do
         let t = ref (Sri.next_grant_at sri) in
         for k = 0 to Array.length cores - 1 do
           let w = Core_model.wake cores.(k) in
           wakes.(k) <- w;
           if w < !t then t := w
         done;
         let t = !t in
         if t = max_int then
           (* unreachable: a blocked analysis core always has a queued or
              granted transaction, both of which schedule an event *)
           failwith "Machine.run: event kernel has no pending event";
         if t > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
         incr events;
         skipped := !skipped + (t - !last - 1);
         last := t;
         Sri.step sri ~cycle:t;
         for k = 0 to Array.length cores - 1 do
           if wakes.(k) = t then begin
             let c = cores.(k) in
             Core_model.advance c ~cycle:t;
             if k > 0 && restart_contenders && Core_model.finished c then
               Core_model.restart c
           end
         done;
         if Core_model.finished analysis_core then
           for k = 1 to Array.length cores - 1 do
             Core_model.settle cores.(k) ~cycle:t
           done
       done)

let run ?(config = default_config) ?(max_cycles = default_max_cycles)
    ?(restart_contenders = true) ?priorities ?(trace = false) ?kernel
    ~analysis ?(contenders = []) () =
  Obs.Metrics.incr m_runs;
  let finish_cycle = ref 0 in
  Obs.Tracer.with_span "tcsim.run"
    ~attrs:(fun () ->
        [
          ("cores", string_of_int (1 + List.length contenders));
          ("cycles", string_of_int !finish_cycle);
        ])
    (fun () ->
  let ncores = Array.length config.cores in
  let all_tasks = analysis :: contenders in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun t ->
       if t.core < 0 || t.core >= ncores then
         invalid_arg (Printf.sprintf "Machine.run: core %d out of range" t.core);
       if Hashtbl.mem seen t.core then
         invalid_arg (Printf.sprintf "Machine.run: core %d assigned twice" t.core);
       Hashtbl.add seen t.core ())
    all_tasks;
  let sri = Sri.create ~latency:config.latency ?priorities ~trace ~ncores () in
  let cores =
    Array.of_list
      (List.map
         (fun t -> Core_model.create config.cores.(t.core) ~sri ~core_id:t.core t.program)
         all_tasks)
  in
  Fun.protect
    ~finally:(fun () -> Sri.flush_metrics sri)
    (fun () ->
       match match kernel with Some k -> k | None -> default_kernel () with
       | `Stepped -> run_stepped ~max_cycles ~restart_contenders ~sri cores
       | `Event -> run_event ~max_cycles ~restart_contenders ~sri cores);
  let result_of core =
    {
      counters = Core_model.counters core;
      profile = Sri.profile sri ~core:(Core_model.core_id core);
      restarts = Core_model.restarts core;
    }
  in
  let result =
    {
      cycles = Core_model.finish_cycle cores.(0);
      analysis = result_of cores.(0);
      contenders = List.mapi (fun k t -> (t.core, result_of cores.(k + 1))) contenders;
      trace = Sri.trace sri;
    }
  in
  finish_cycle := result.cycles;
  Obs.Metrics.add m_cycles result.cycles;
  result)

let run_isolation ?config ?max_cycles ?kernel ?(core = 0) program =
  run ?config ?max_cycles ?kernel ~analysis:{ program; core } ()

type spec = {
  sp_restart_contenders : bool;
  sp_priorities : int array option;
  sp_trace : bool;
  sp_analysis : task;
  sp_contenders : task list;
}

let spec ?(restart_contenders = true) ?priorities ?(trace = false) ~analysis
    ?(contenders = []) () =
  {
    sp_restart_contenders = restart_contenders;
    sp_priorities = priorities;
    sp_trace = trace;
    sp_analysis = analysis;
    sp_contenders = contenders;
  }

let run_family ?config ?max_cycles ?kernel specs =
  List.map
    (fun s ->
       run ?config ?max_cycles ~restart_contenders:s.sp_restart_contenders
         ?priorities:s.sp_priorities ~trace:s.sp_trace ?kernel
         ~analysis:s.sp_analysis ~contenders:s.sp_contenders ())
    specs
