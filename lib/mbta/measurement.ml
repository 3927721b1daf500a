open Platform

type observation = {
  counters : Counters.t;
  cycles : int;
  ground_truth : Access_profile.t;
}

let of_result (r : Tcsim.Machine.run_result) =
  {
    counters = r.Tcsim.Machine.analysis.Tcsim.Machine.counters;
    cycles = r.Tcsim.Machine.cycles;
    ground_truth = r.Tcsim.Machine.analysis.Tcsim.Machine.profile;
  }

let isolation ?config ?(core = 0) program =
  Obs.Tracer.with_span "measure.isolation"
    ~attrs:(fun () ->
        [
          ("program", Tcsim.Program.name program);
          ("core", string_of_int core);
        ])
    (fun () -> of_result (Runtime.Run_cache.run_isolation ?config ~core program))

let isolation_sweep ?config ?(core = 0) programs =
  List.map (fun p -> isolation ?config ~core p) programs

let high_water_mark = function
  | [] -> invalid_arg "Measurement.high_water_mark: empty sweep"
  | first :: rest ->
    let max_counters (a : Counters.t) (b : Counters.t) =
      {
        Counters.ccnt = max a.Counters.ccnt b.Counters.ccnt;
        pmem_stall = max a.Counters.pmem_stall b.Counters.pmem_stall;
        dmem_stall = max a.Counters.dmem_stall b.Counters.dmem_stall;
        pcache_miss = max a.Counters.pcache_miss b.Counters.pcache_miss;
        dcache_miss_clean = max a.Counters.dcache_miss_clean b.Counters.dcache_miss_clean;
        dcache_miss_dirty = max a.Counters.dcache_miss_dirty b.Counters.dcache_miss_dirty;
      }
    in
    List.fold_left
      (fun acc o ->
         {
           counters = max_counters acc.counters o.counters;
           cycles = max acc.cycles o.cycles;
           ground_truth = Access_profile.map2 max acc.ground_truth o.ground_truth;
         })
      first rest

(* --- batched families --------------------------------------------------
   One experiment cell's measurements — isolations plus co-runs — share
   programs, so they dispatch as a {!Runtime.Run_cache.run_family}:
   members already cached replay for free, and every member is
   individually content-addressed (a later solo request for the same
   measurement is a hit). *)

let isolation_family ?config tasks =
  Obs.Tracer.with_span "measure.isolation_family"
    ~attrs:(fun () -> [ ("members", string_of_int (List.length tasks)) ])
    (fun () ->
       List.map of_result
         (Runtime.Run_cache.run_family ?config
            (List.map
               (fun (program, core) ->
                  Tcsim.Machine.spec
                    ~analysis:{ Tcsim.Machine.program; core }
                    ())
               tasks)))

type cell = {
  iso_analysis : observation;
  iso_contenders : observation list;
  corun : observation;
}

let cell_family ?config ~analysis ~contenders ?(restart_contenders = false) () =
  let program, _ = analysis in
  let task (p, c) = { Tcsim.Machine.program = p; core = c } in
  Obs.Tracer.with_span "measure.cell_family"
    ~attrs:(fun () ->
        [
          ("program", Tcsim.Program.name program);
          ("contenders", string_of_int (List.length contenders));
        ])
    (fun () ->
       let specs =
         Tcsim.Machine.spec ~analysis:(task analysis) ()
         :: List.map (fun c -> Tcsim.Machine.spec ~analysis:(task c) ()) contenders
         @ [
           Tcsim.Machine.spec ~restart_contenders ~analysis:(task analysis)
             ~contenders:(List.map task contenders) ();
         ]
       in
       match
         List.map of_result (Runtime.Run_cache.run_family ?config specs)
       with
       | iso_analysis :: rest ->
         let rec split acc = function
           | [ corun ] -> (List.rev acc, corun)
           | o :: rest -> split (o :: acc) rest
           | [] -> assert false
         in
         let iso_contenders, corun = split [] rest in
         { iso_analysis; iso_contenders; corun }
       | [] -> assert false)

let corun ?config ~analysis ~contenders ?(restart_contenders = false) () =
  let program, core = analysis in
  Obs.Tracer.with_span "measure.corun"
    ~attrs:(fun () ->
        [
          ("program", Tcsim.Program.name program);
          ("contenders", string_of_int (List.length contenders));
        ])
    (fun () ->
       of_result
         (Runtime.Run_cache.run ?config ~restart_contenders
            ~analysis:{ Tcsim.Machine.program; core }
            ~contenders:
              (List.map
                 (fun (p, c) -> { Tcsim.Machine.program = p; core = c })
                 contenders)
            ()))
