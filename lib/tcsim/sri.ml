open Platform

(* All state is preallocated int/bool arrays, so arbitration allocates
   nothing once a run has started (traced runs excepted).

   Per interface [i] ([Target.rank]): occupancy, prefetch line buffer,
   round-robin pointer, and a pending queue of core ids in arrival order
   ([queue.(i * ncores + k)], [k < qlen.(i)]).

   Per core: one transaction slot, reused by the core's next request —
   a core has at most one outstanding transaction. [done_at] is
   [max_int] until the slot is granted; [queued_on] is the interface it
   waits on, or -1.

   Per-(target, op) tables are dense over [Op.pair_index]. *)

let targets = Array.of_list Target.all (* indexed by [Target.rank] *)

type t = {
  ncores : int;
  priorities : int array;
  lmin : int array; (* per pair *)
  lmax : int array;
  hide : int array; (* lmin - cs: the overlap a stall reading hides *)
  lmu_dirty_lmax : int;
  (* per interface *)
  busy_until : int array;
  last_line : int array; (* line-aligned addr of the last served transaction *)
  has_line : bool array;
  last_served : int array;
  queue : int array;
  qlen : int array;
  (* per core *)
  issued_at : int array;
  done_at : int array;
  line : int array;
  op : Op.t array;
  pair : int array; (* [Op.pair_index] of (target, op) *)
  folded : bool array;
  queued_on : int array;
  counts : int array; (* ground-truth profile: [core * Op.pair_count + pair] *)
  (* per interface, since the last [flush_metrics] *)
  busy_cycles : int array;
  wait_cycles : int array;
  grants : int array;
  tracing : bool;
  mutable events : Trace.event list; (* newest first *)
}

(* Per-target service/wait cycle totals. Values are simulated cycles, so
   the totals are exactly reproducible and jobs-invariant — the software
   analogue of the DSU's per-slave occupancy counters. *)
let m_busy, m_wait, m_grants =
  let mk f =
    Array.map (fun t -> f (Printf.sprintf "sri.%s.%s" (Target.to_string t))) targets
  in
  ( mk (fun n -> Obs.Metrics.gauge (n "busy_cycles")),
    mk (fun n -> Obs.Metrics.gauge (n "wait_cycles")),
    mk (fun n -> Obs.Metrics.counter (n "grants")) )

let create ?(latency = Latency.default) ?priorities ?(trace = false) ~ncores () =
  let priorities =
    match priorities with
    | None -> Array.make ncores 0
    | Some p ->
      if Array.length p <> ncores then
        invalid_arg "Sri.create: priority array length mismatch";
      Array.copy p
  in
  let per_pair f =
    let a = Array.make Op.pair_count 0 in
    List.iter (fun (t, o) -> a.(Op.pair_index t o) <- f t o) Op.valid_pairs;
    a
  in
  let ntargets = Array.length targets in
  {
    ncores;
    priorities;
    lmin = per_pair (Latency.lmin latency);
    lmax = per_pair (Latency.lmax latency);
    hide = per_pair (fun t o -> Latency.lmin latency t o - Latency.min_stall latency t o);
    lmu_dirty_lmax = Latency.lmu_dirty_lmax latency;
    busy_until = Array.make ntargets 0;
    last_line = Array.make ntargets 0;
    has_line = Array.make ntargets false;
    last_served = Array.make ntargets (ncores - 1);
    queue = Array.make (ntargets * ncores) 0;
    qlen = Array.make ntargets 0;
    issued_at = Array.make ncores 0;
    done_at = Array.make ncores max_int;
    line = Array.make ncores 0;
    op = Array.make ncores Op.Code;
    pair = Array.make ncores 0;
    folded = Array.make ncores false;
    queued_on = Array.make ncores (-1);
    counts = Array.make (ncores * Op.pair_count) 0;
    busy_cycles = Array.make ntargets 0;
    wait_cycles = Array.make ntargets 0;
    grants = Array.make ntargets 0;
    tracing = trace;
    events = [];
  }

let lmu = Target.rank Target.Lmu

(* Streaming (line-buffer) hits only exist on the flash interfaces; the
   LMU SRAM has lmin = lmax anyway. The 256-bit buffer serves repeats of
   the current line and — thanks to next-line prefetch — the immediately
   following line of a sequential stream. *)
let service_time t i core =
  let line = t.line.(core) in
  if t.folded.(core) && i = lmu then t.lmu_dirty_lmax
  else if
    i <> lmu && t.has_line.(i)
    && (t.last_line.(i) = line || t.last_line.(i) + Memory_map.line_bytes = line)
  then t.lmin.(t.pair.(core))
  else t.lmax.(t.pair.(core))

(* Arbitration: most urgent priority class first (lower value wins), then
   round-robin within the class — smallest positive distance from the last
   served master. Returns the queue position of the winner. *)
let rr_pick t i =
  let base = i * t.ncores in
  let best_class = ref max_int in
  for k = 0 to t.qlen.(i) - 1 do
    let p = t.priorities.(t.queue.(base + k)) in
    if p < !best_class then best_class := p
  done;
  let best = ref (-1) and best_dist = ref max_int in
  for k = 0 to t.qlen.(i) - 1 do
    let core = t.queue.(base + k) in
    if t.priorities.(core) = !best_class then begin
      let d = (core - t.last_served.(i) + t.ncores) mod t.ncores in
      let d = if d = 0 then t.ncores else d in
      if d < !best_dist then begin
        best := k;
        best_dist := d
      end
    end
  done;
  !best

let grant t i cycle k =
  let base = i * t.ncores in
  let core = t.queue.(base + k) in
  let svc = service_time t i core in
  let waited = cycle - t.issued_at.(core) in
  t.done_at.(core) <- cycle + svc;
  t.busy_until.(i) <- cycle + svc;
  t.last_line.(i) <- t.line.(core);
  t.has_line.(i) <- true;
  t.last_served.(i) <- core;
  (* later arrivals shift left one slot, keeping arrival order *)
  for j = base + k to base + t.qlen.(i) - 2 do
    t.queue.(j) <- t.queue.(j + 1)
  done;
  t.qlen.(i) <- t.qlen.(i) - 1;
  t.queued_on.(core) <- -1;
  let c = (core * Op.pair_count) + t.pair.(core) in
  t.counts.(c) <- t.counts.(c) + 1;
  t.busy_cycles.(i) <- t.busy_cycles.(i) + svc;
  t.wait_cycles.(i) <- t.wait_cycles.(i) + waited;
  t.grants.(i) <- t.grants.(i) + 1;
  if t.tracing then
    t.events <-
      {
        Trace.issue_cycle = t.issued_at.(core);
        grant_cycle = cycle;
        complete_cycle = cycle + svc;
        core;
        target = targets.(i);
        op = t.op.(core);
        service = svc;
        waited;
      }
      :: t.events

let try_grant t i ~cycle =
  if t.qlen.(i) > 0 && t.busy_until.(i) <= cycle then grant t i cycle (rr_pick t i)

let request t ~core ~target ~op ~addr ~folded_dirty_writeback ~cycle =
  if not (Op.valid target op) then
    invalid_arg
      (Printf.sprintf "Sri.request: inadmissible (%s, %s)"
         (Target.to_string target) (Op.to_string op));
  if core < 0 || core >= t.ncores then invalid_arg "Sri.request: bad core id";
  if t.queued_on.(core) >= 0 then
    invalid_arg "Sri.request: core already has a queued transaction";
  let i = Target.rank target in
  t.issued_at.(core) <- cycle;
  t.done_at.(core) <- max_int;
  t.line.(core) <- Memory_map.line_of addr;
  t.op.(core) <- op;
  t.pair.(core) <- Op.pair_index target op;
  t.folded.(core) <- folded_dirty_writeback;
  t.queued_on.(core) <- i;
  t.queue.((i * t.ncores) + t.qlen.(i)) <- core;
  t.qlen.(i) <- t.qlen.(i) + 1;
  try_grant t i ~cycle

let done_at t ~core = t.done_at.(core)

let stall t ~core =
  Int.max 0 (t.done_at.(core) - t.issued_at.(core) - t.hide.(t.pair.(core)))

let step t ~cycle =
  for i = 0 to Array.length t.qlen - 1 do
    try_grant t i ~cycle
  done

(* Earliest future cycle at which any interface can issue a grant. An
   interface with queued requests holds them exactly until [busy_until]
   (a free interface grants immediately at request time, so it never
   carries a queue across cycles); interfaces with empty queues have
   nothing to schedule. *)
let next_grant_at t =
  let acc = ref max_int in
  for i = 0 to Array.length t.qlen - 1 do
    if t.qlen.(i) > 0 && t.busy_until.(i) < !acc then acc := t.busy_until.(i)
  done;
  !acc

let profile t ~core =
  Access_profile.make
    (List.map
       (fun (target, op) ->
          ((target, op), t.counts.((core * Op.pair_count) + Op.pair_index target op)))
       Op.valid_pairs)

let flush_metrics t =
  Array.iteri
    (fun i _ ->
       Obs.Metrics.gauge_add m_busy.(i) t.busy_cycles.(i);
       Obs.Metrics.gauge_add m_wait.(i) t.wait_cycles.(i);
       Obs.Metrics.add m_grants.(i) t.grants.(i))
    targets;
  Array.fill t.busy_cycles 0 (Array.length targets) 0;
  Array.fill t.wait_cycles 0 (Array.length targets) 0;
  Array.fill t.grants 0 (Array.length targets) 0

let trace t = List.rev t.events
