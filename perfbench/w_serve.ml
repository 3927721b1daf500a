(* Workload [serve]: an in-process Serve.Server daemon with a fresh
   Disk_cache, driven by closed-loop Serve.Clients over a Unix socket
   with the seeded query mix of {!Gen.serve_mix}. Each cycle has three
   phases: cold (every distinct query computed once), hot (a
   round-robin replay of the resident queries) and disk (a fresh Engine on the same
   cache directory replays the distinct queries). *)

module P = Serve.Protocol

type daemon = {
  engine : Serve.Engine.t;
  disk : Serve.Disk_cache.t;
  socket : string;
  stop : bool Atomic.t;
  stopped : Semaphore.Binary.t;  (** released when the serve loop returned *)
  clients : Serve.Client.t list;
}

let root = Filename.concat ".perfbench" "serve"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The daemons of a run take turns on one domain of their own, as a
   daemon runs in a process of its own. With the daemon's threads on
   the clients' domain the two took turns on one runtime lock, and the
   hot tail of one seed varied threefold from run to run; a new domain
   per daemon grew the peak RSS by several MB per start. *)
module Host = struct
  let lock = Mutex.create ()
  let posted = Condition.create ()
  let job : (unit -> unit) option option ref = ref None  (* [Some None]: quit *)
  let domain = ref None

  let post j =
    Mutex.lock lock;
    job := Some j;
    Condition.signal posted;
    Mutex.unlock lock

  let rec loop () =
    Mutex.lock lock;
    while Option.is_none !job do Condition.wait posted lock done;
    let j = Option.get !job in
    job := None;
    Mutex.unlock lock;
    match j with None -> () | Some f -> f (); loop ()

  (* Runs [f] on the host domain; one job at a time. *)
  let run f =
    if Option.is_none !domain then domain := Some (Domain.spawn loop);
    post (Some f)

  let stop () =
    Option.iter (fun d -> post None; Domain.join d) !domain;
    domain := None
end

(* Starts a daemon on [dir]'s cache and connects the clients, each
   checked with a ping. *)
let start ?jobs ~dir () =
  Counts.mkdir_p dir;
  let disk = Serve.Disk_cache.open_ ~root:(Filename.concat dir "cache") () in
  let engine =
    Serve.Engine.create
      {
        Serve.Engine.default_config with
        jobs;
        disk = Some disk;
        persist_runtime_caches = true;
      }
  in
  let socket = Filename.concat dir "s.sock" in
  let addr = Serve.Server.Unix_path socket in
  let stop = Atomic.make false in
  let ready = Semaphore.Binary.make false in
  let stopped = Semaphore.Binary.make false in
  Host.run (fun () ->
      (* released on failure too: connecting then fails loudly *)
      Fun.protect
        ~finally:(fun () ->
            Semaphore.Binary.release ready;
            Semaphore.Binary.release stopped)
        (fun () ->
           try
             Serve.Server.serve ~engine ~addr ~stop
               ~on_ready:(fun _ -> Semaphore.Binary.release ready)
               ()
           with e -> prerr_endline ("serve: daemon failed: " ^ Printexc.to_string e)));
  Semaphore.Binary.acquire ready;
  let clients =
    List.init Gen.clients (fun i ->
        let c = Serve.Client.connect addr in
        (match Serve.Client.rpc c (P.Ping (string_of_int i)) with
         | Ok (P.Pong _) -> ()
         | _ -> failwith "serve: daemon did not answer a ping");
        c)
  in
  { engine; disk; socket; stop; stopped; clients }

(* A connection wakes the accept loop, which otherwise sees [stop] only
   when its 0.2 s select times out. *)
let shutdown d =
  List.iter Serve.Client.close d.clients;
  Atomic.set d.stop true;
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect s (Unix.ADDR_UNIX d.socket) with Unix.Unix_error _ -> ());
  Unix.close s;
  Semaphore.Binary.acquire d.stopped;
  Serve.Engine.close d.engine

(* Closed loop: each client sends its next request once the previous
   reply arrived. [queues.(c)] is client [c]'s request sequence; replies
   and latencies land at the request's index. *)
let replay_each d (queues : P.analyze array array) =
  let out =
    Array.map
      (fun q -> (Array.make (Array.length q) (Error "unsent"), Array.make (Array.length q) 0.))
      queues
  in
  let threads =
    List.mapi
      (fun c client ->
         Thread.create
           (fun () ->
              let replies, lat = out.(c) in
              Array.iteri
                (fun i q ->
                   let t0 = Harness.now () in
                   replies.(i) <- Serve.Client.rpc client (P.Analyze q);
                   lat.(i) <- Harness.now () -. t0)
                queues.(c))
           ())
      d.clients
  in
  List.iter Thread.join threads;
  out

(* Closed loop over one shared queue: clients take the next unsent
   request as they become free. *)
let replay_shared d (queue : P.analyze array) =
  let replies = Array.make (Array.length queue) (Error "unsent") in
  let next = Atomic.make 0 in
  let threads =
    List.map
      (fun client ->
         Thread.create
           (fun () ->
              let rec loop () =
                let i = Atomic.fetch_and_add next 1 in
                if i < Array.length queue then begin
                  replies.(i) <- Serve.Client.rpc client (P.Analyze queue.(i));
                  loop ()
                end
              in
              loop ())
           ())
      d.clients
  in
  List.iter Thread.join threads;
  replies

(* --- checks ------------------------------------------------------------- *)

let is_lint_fail (q : P.analyze) = String.starts_with ~prefix:"lint/" q.id

let provenance = P.provenance_to_string

let check_reply (r : Report.t) ~what ~cache ~expected (q : P.analyze) reply =
  match reply with
  | Ok (P.Reject { code = P.Lint; _ }) when is_lint_fail q -> Report.check r true ""
  | Ok (P.Reject { code; message; _ }) ->
    Report.check r false "%s: %s rejected (%s): %s" what q.id
      (P.reject_code_to_string code) message
  | Ok (P.Result { cache = got; result; rid; _ }) ->
    Report.check r
      ((not (is_lint_fail q)) && rid = q.id && got = cache
       && match Hashtbl.find_opt expected q.id with
          | Some e -> e = result
          | None -> Hashtbl.replace expected q.id result; true)
      "%s: %s answered from %s (wanted %s) or with a different result" what q.id
      (provenance got) (provenance cache)
  | Ok _ -> Report.check r false "%s: %s got an unexpected reply" what q.id
  | Error e -> Report.check r false "%s: %s got an undecodable reply: %s" what q.id e

(* Single-contender core-1 results of the bundled app must reproduce
   the Figure 4 row of the same scenario and load. *)
let check_paper_rows (r : Report.t) expected (mix : Gen.serve_mix) =
  List.iter
    (fun (q : P.analyze) ->
       match q.contenders, Hashtbl.find_opt expected q.id with
       | [ P.Con_level { level; core = 1 } ], Some (res : P.analyze_result) ->
         let lvl = Workload.Load_gen.level_to_string level in
         let _, _, iso, observed, ftc, ilp, ideal =
           List.find
             (fun (s, l, _, _, _, _, _) -> s = q.scenario && l = lvl)
             Expect.figure4_rows
         in
         Report.check r
           (res.isolation_cycles = iso
            && (match res.observed_cycles with None -> true | Some o -> o = observed)
            && List.for_all
                 (fun (m, d) ->
                    d = Some (match m with P.Ftc -> ftc | P.Ilp_ptac -> ilp | P.Ideal -> ideal))
                 res.bounds)
           "%s: result differs from the Figure 4 row" q.id
       | _ -> ())
    mix.distinct

(* --- one cycle ------------------------------------------------------------ *)

type cycle = {
  setup_s : float list;  (** both daemon starts of the cycle *)
  cold_s : float;
  hot_s : float;
  disk_s : float;
  hot_latencies : float array list;  (** per client, in sending order *)
  counts : (string * int) list;
}

let cold_queue (mix : Gen.serve_mix) = Array.of_list (mix.distinct @ mix.lint_fail)

let run_cycle (r : Report.t) ~(mix : Gen.serve_mix) ~dir i =
  let what phase = Printf.sprintf "cycle %d %s" i phase in
  let expected = Hashtbl.create 64 in
  Speed.sample ();
  (* set-up: cold caches, a fresh cache directory, the daemon started
     and its clients connected *)
  let d, setup_s =
    Harness.setup (fun () ->
        Harness.clear_caches ();
        rm_rf dir;
        start ~dir ())
  in
  let c0 = Counts.snapshot () in
  let cold = cold_queue mix in
  let replies, cold_s = Harness.time (fun () -> replay_shared d cold) in
  Array.iteri
    (fun k q -> check_reply r ~what:(what "cold") ~cache:P.Computed ~expected q replies.(k))
    cold;
  Speed.sample ();
  (* the hot phase starts from the same heap state in every cycle *)
  Gc.full_major ();
  let out, hot_s = Harness.time (fun () -> replay_each d mix.hot) in
  Speed.sample ();
  Array.iteri
    (fun c queue ->
       let replies, _ = out.(c) in
       Array.iteri
         (fun k q -> check_reply r ~what:(what "hot") ~cache:P.Memory ~expected q replies.(k))
         queue)
    mix.hot;
  shutdown d;
  let d, disk_setup_s =
    Harness.setup (fun () ->
        Harness.clear_caches ();
        start ~dir ())
  in
  let distinct = Array.of_list mix.distinct in
  let replies, disk_s = Harness.time (fun () -> replay_shared d distinct) in
  Array.iteri
    (fun k q -> check_reply r ~what:(what "disk") ~cache:P.Disk ~expected q replies.(k))
    distinct;
  Speed.sample ();
  shutdown d;
  let counts = Counts.diff c0 (Counts.snapshot ()) in
  rm_rf dir;
  check_paper_rows r expected mix;
  {
    setup_s = [ setup_s; disk_setup_s ];
    cold_s;
    hot_s;
    disk_s;
    hot_latencies = List.map snd (Array.to_list out);
    counts;
  }

let run_untraced (r : Report.t) ~seed ~seconds =
  let start = Harness.now () in
  let mix = Gen.serve_mix ~seed in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  let after_min, rss = Harness.rss_after_min () in
  let cycles =
    Harness.time_box ~after_min ~start ~seconds ~min_units:4 (fun i -> run_cycle r ~mix ~dir i)
  in
  rm_rf dir;
  Host.stop ();
  (mix, cycles, rss ())

(* --- traced cycle: one client, Engine.analyze called directly first ---- *)

let latency = Tcsim.Machine.default_config.Tcsim.Machine.latency

(* The simulations the engine runs for a bundled query, as one run
   family like the engine's. Each member is keyed by the run it stands
   for, and a cycle probes it once, as the run cache simulates it once. *)
let sim_probes seen (q : P.analyze) =
  match Platform.Scenario.find q.scenario, q.app with
  | Some scenario, P.App_bundled ->
    let variant = Workload.Control_loop.variant_of_scenario scenario in
    let app = Workload.Control_loop.app variant in
    let contenders =
      List.filter_map
        (function
          | P.Con_level { level; core } ->
            Some
              ( Printf.sprintf "%s@%d" (Workload.Load_gen.level_to_string level) core,
                { Tcsim.Machine.program = Workload.Load_gen.make ~variant ~level ~region_slot:core ();
                  core } )
          | P.Con_inline _ -> None)
        q.contenders
    in
    let app_task = { Tcsim.Machine.program = app; core = 0 } in
    let members =
      (("app", Tcsim.Machine.spec ~analysis:app_task ())
       :: List.map (fun (key, task) -> (key, Tcsim.Machine.spec ~analysis:task ())) contenders)
      @
      if q.observed then
        [ ( "corun/" ^ String.concat "+" (List.map fst contenders),
            Tcsim.Machine.spec ~restart_contenders:false ~analysis:app_task
              ~contenders:(List.map snd contenders) () ) ]
      else []
    in
    let fresh =
      List.filter_map
        (fun (key, spec) ->
           let key = q.scenario ^ "/" ^ key in
           if Hashtbl.mem seen key then None else (Hashtbl.replace seen key (); Some spec))
        members
    in
    let lint =
      ( "analysis", "preflight", fun _ ->
          ignore
            (Analysis.Preflight.check_run ~latency ~scenario
               ~tasks:
                 ({ Analysis.Program_lint.label = "app"; core = 0; program = app }
                  :: List.map
                       (fun (_, (t : Tcsim.Machine.task)) ->
                          { Analysis.Program_lint.label = Printf.sprintf "contender%d" t.core;
                            core = t.core; program = t.program })
                       contenders)
               ()) )
    in
    lint
    :: (if fresh = [] then []
        else [ ("tcsim", "machine.run_family", fun _ -> ignore (Tcsim.Machine.run_family fresh)) ])
  | _ -> []

let codec_probe (q : P.analyze) =
  ( "serve", "codec", fun reply ->
      ignore (P.decode_request (P.encode_request (P.Analyze q)));
      match reply with
      | Ok resp -> ignore (P.decode_response (P.encode_response resp))
      | Error _ -> () )

let engine_call d (q : P.analyze) ~probes =
  Span.call_probed ~layer:"serve" ~name:"engine.analyze"
    (fun () -> ignore (Serve.Engine.analyze d.engine q))
    ~probes

(* Client.rpc, after the query's Engine.analyze twin made it resident:
   the rpc's self time is transport, once the codec and the engine hit
   are probed out. *)
let rpc d (q : P.analyze) =
  let client = List.hd d.clients in
  Span.call_probed ~layer:"serve" ~name:"client.rpc"
    (fun () -> Serve.Client.rpc client (P.Analyze q))
    ~probes:
      (codec_probe q
       :: (if is_lint_fail q then []
           else [ ("serve", "engine.analyze", fun _ -> ignore (Serve.Engine.analyze d.engine q)) ]))

let traced_cycle (r : Report.t) ~(mix : Gen.serve_mix) ~dir i =
  let what phase = Printf.sprintf "traced cycle %d %s" i phase in
  let expected = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let start () = Span.call ~layer:"serve" ~name:"daemon.start" (start ~jobs:1 ~dir) in
  let shutdown d = Span.call ~layer:"serve" ~name:"daemon.stop" (fun () -> shutdown d) in
  let d = start () in
  List.iter
    (fun (q : P.analyze) ->
       if not (is_lint_fail q) then engine_call d q ~probes:(sim_probes seen q);
       check_reply r ~what:(what "cold")
         ~cache:P.Memory ~expected q (rpc d q))
    (Array.to_list (cold_queue mix));
  Array.iter
    (fun (q : P.analyze) ->
       check_reply r ~what:(what "hot") ~cache:P.Memory ~expected q (rpc d q);
       Span.call ~layer:"serve" ~name:"digest" (fun () -> ignore (Serve.Engine.digest q)))
    mix.hot.(0);
  shutdown d;
  Harness.clear_caches ();
  let d = start () in
  List.iter
    (fun (q : P.analyze) ->
       engine_call d q
         ~probes:
           [ ("serve", "disk.load", fun _ ->
                 ignore (Serve.Disk_cache.load d.disk ~ns:"query" ~key:(Serve.Engine.digest q))) ];
       check_reply r ~what:(what "disk") ~cache:P.Memory ~expected q (rpc d q))
    mix.distinct;
  shutdown d;
  check_paper_rows r expected mix

(* The traced cycle's work without spans or twins: one client, engine
   at jobs = 1 — the base of the tracing overhead ratio. *)
let traced_reference (r : Report.t) ~(mix : Gen.serve_mix) ~dir i =
  let what phase = Printf.sprintf "reference cycle %d %s" i phase in
  let expected = Hashtbl.create 64 in
  let phase d cache queries =
    let client = List.hd d.clients in
    List.iter
      (fun (q : P.analyze) ->
         check_reply r ~what:(what (provenance cache)) ~cache ~expected q
           (Serve.Client.rpc client (P.Analyze q)))
      queries
  in
  let d = start ~jobs:1 ~dir () in
  phase d P.Computed (Array.to_list (cold_queue mix));
  phase d P.Memory (Array.to_list mix.hot.(0));
  shutdown d;
  Harness.clear_caches ();
  let d = start ~jobs:1 ~dir () in
  phase d P.Disk mix.distinct;
  shutdown d

let run_traced (r : Report.t) ~seed ~seconds =
  let start_t = Harness.now () in
  let mix = Gen.serve_mix ~seed in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  let passes =
    Harness.time_box ~start:start_t ~seconds ~min_units:1 (fun i ->
        let (), _ = Harness.setup Harness.clear_caches in
        rm_rf dir;
        let rt0 = Harness.runtime_now () in
        let _, untraced_wall =
          Harness.time (fun () -> traced_reference r ~mix ~dir i)
        in
        let runtime = Harness.runtime_delta rt0 (Harness.runtime_now ()) in
        let (), _ = Harness.setup Harness.clear_caches in
        rm_rf dir;
        Span.reset ();
        let c0 = Counts.snapshot () in
        let (), wall = Harness.time (fun () -> traced_cycle r ~mix ~dir i) in
        let counts = Counts.diff c0 (Counts.snapshot ()) in
        rm_rf dir;
        ( Harness.layer_metrics { Harness.wall; untraced_wall; counts; runtime; exact_rate = 0. },
          counts ))
  in
  Host.stop ();
  Harness.report_layers r (List.map fst passes);
  let counts = List.map snd passes in
  Report.check r
    (List.for_all (( = ) (List.hd counts)) counts)
    "deterministic counts differ between traced cycles";
  List.hd counts
