open Platform

type kind = P16 | E16

type config = {
  kind : kind;
  icache : Cache.geometry option;
  dcache : Cache.geometry option;
}

let p16_config =
  { kind = P16; icache = Some Cache.tc16p_icache; dcache = Some Cache.tc16p_dcache }

let e16_config = { kind = E16; icache = Some Cache.tc16e_icache; dcache = None }


(* --- Decoded program -----------------------------------------------------
   Where an instruction's fetch and data access go depends only on their
   addresses and the core's cache configuration, so each instruction of
   the program text is classified once per run; whether a cached access
   hits is decided when it executes, in program order. An access the
   memory map rejects decodes to a [fault] raised when the instruction
   begins, exactly when classifying it on the fly would have raised. *)

type fetch =
  | F_local (* pc in scratchpad: no fetch transaction *)
  | F_cached (* through the I-cache; a miss counts PCACHE_MISS *)
  | F_uncached

type exec =
  | X_compute
  | X_local (* scratchpad data access *)
  | X_cached (* through the D-cache *)
  | X_uncached

type decoded = {
  pc : int;
  fetch : fetch;
  ftarget : Target.t;
  exec : exec;
  etarget : Target.t;
  operand : int; (* compute cycles, or the data address *)
  write : bool;
  fault : string option;
}

let classify addr =
  match Memory_map.classify addr with
  | r -> Ok r
  | exception Invalid_argument m -> Error m

let decode ~icache ~dcache (instr : Program.instr) =
  let fetch, ftarget, ffault =
    match classify instr.Program.pc with
    | Ok (Memory_map.Pspr | Memory_map.Dspr) -> (F_local, Target.Lmu, None)
    | Ok (Memory_map.Sri (target, cacheable)) ->
      ((if cacheable && icache then F_cached else F_uncached), target, None)
    | Error m -> (F_local, Target.Lmu, Some m)
  in
  let data addr ~write =
    match classify addr with
    | Ok (Memory_map.Dspr | Memory_map.Pspr) -> (X_local, Target.Lmu, addr, write, None)
    | Ok (Memory_map.Sri ((Target.Pf0 | Target.Pf1) as target, _)) when write ->
      ( X_local, target, addr, write,
        Some (Printf.sprintf "Core_model: store to program flash at 0x%x" addr) )
    | Ok (Memory_map.Sri (target, cacheable)) ->
      ((if cacheable && dcache then X_cached else X_uncached), target, addr, write, None)
    | Error m -> (X_local, Target.Lmu, addr, write, Some m)
  in
  let exec, etarget, operand, write, xfault =
    match instr.Program.kind with
    | Program.Compute n -> (X_compute, Target.Lmu, n, false, None)
    | Program.Load addr -> data addr ~write:false
    | Program.Store addr -> data addr ~write:true
  in
  (* the data access is classified first, so its fault wins *)
  let fault = if Option.is_some xfault then xfault else ffault in
  { pc = instr.Program.pc; fetch; ftarget; exec; etarget; operand; write; fault }

type phase =
  | Start
  | Busy (* [busy] more cycles after the current one *)
  | Wait_fetch (* fetch in flight; then execute [pending] *)
  | Wait_writeback (* victim write-back in flight; then fill [pending] *)
  | Wait_data
  | Done

type t = {
  core_id : int;
  sri : Sri.t;
  code : decoded array; (* indexed like [Program.instr] *)
  walker : Program.Walker.t;
  icache : Cache.t option;
  dcache : Cache.t option;
  mutable phase : phase;
  mutable busy : int;
  mutable pending : int; (* [code] index of the instruction in flight *)
  mutable ccnt : int;
  mutable pmem_stall : int;
  mutable dmem_stall : int;
  mutable pcache_miss : int;
  mutable dcache_miss_clean : int;
  mutable dcache_miss_dirty : int;
  mutable finish_at : int;
  mutable restart_count : int;
  mutable synced : int; (* last cycle this core was stepped at; -1 initially *)
}

let create (config : config) ~sri ~core_id program =
  let icache = Option.map Cache.create config.icache in
  let dcache =
    match config.kind with P16 -> Option.map Cache.create config.dcache | E16 -> None
  in
  let decode = decode ~icache:(Option.is_some icache) ~dcache:(Option.is_some dcache) in
  {
    core_id;
    sri;
    code = Array.init (Program.instr_count program) (fun i -> decode (Program.instr program i));
    walker = Program.Walker.create program;
    icache;
    dcache;
    phase = Start;
    busy = 0;
    pending = 0;
    ccnt = 0;
    pmem_stall = 0;
    dmem_stall = 0;
    pcache_miss = 0;
    dcache_miss_clean = 0;
    dcache_miss_dirty = 0;
    finish_at = -1;
    restart_count = 0;
    synced = -1;
  }

let issue t ~target ~op ~addr ~folded ~cycle =
  Sri.request t.sri ~core:t.core_id ~target ~op ~addr
    ~folded_dirty_writeback:folded ~cycle

let cache = function Some c -> c | None -> assert false (* decode checked *)

(* Execute phase of an instruction whose fetch has resolved; consumes the
   current cycle. *)
let apply_exec t d ~cycle =
  match d.exec with
  | X_compute ->
    if d.operand <= 1 then t.phase <- Start
    else begin
      t.busy <- d.operand - 1;
      t.phase <- Busy
    end
  | X_local -> t.phase <- Start
  | X_uncached ->
    issue t ~target:d.etarget ~op:Op.Data ~addr:d.operand ~folded:false ~cycle;
    t.phase <- Wait_data
  | X_cached ->
    let r = Cache.access (cache t.dcache) ~addr:d.operand ~write:d.write in
    if r = Cache.hit then t.phase <- Start
    else if r = Cache.miss then begin
      t.dcache_miss_clean <- t.dcache_miss_clean + 1;
      issue t ~target:d.etarget ~op:Op.Data ~addr:d.operand ~folded:false ~cycle;
      t.phase <- Wait_data
    end
    else begin
      (* [r] is the dirty victim's line address *)
      t.dcache_miss_dirty <- t.dcache_miss_dirty + 1;
      let vtarget =
        match Memory_map.classify r with
        | Memory_map.Sri (vt, _) -> vt
        | Memory_map.Dspr | Memory_map.Pspr ->
          (* dirty lines only ever hold SRI-cacheable data *)
          assert false
      in
      if vtarget = Target.Lmu && d.etarget = Target.Lmu then begin
        (* folded write-back: single long LMU transaction *)
        issue t ~target:Target.Lmu ~op:Op.Data ~addr:d.operand ~folded:true ~cycle;
        t.phase <- Wait_data
      end
      else begin
        issue t ~target:vtarget ~op:Op.Data ~addr:r ~folded:false ~cycle;
        t.phase <- Wait_writeback
      end
    end

(* Fetch + begin an instruction; consumes the current cycle on the fetch
   hit path (as the first execute cycle). *)
let begin_instruction t ~cycle =
  let i = Program.Walker.next t.walker in
  if i < 0 then begin
    (* rewind for a restart; caches stay warm *)
    Program.Walker.reset t.walker;
    t.phase <- Done;
    t.finish_at <- cycle;
    t.ccnt <- t.ccnt - 1 (* the cycle just counted was not used *)
  end
  else begin
    let d = t.code.(i) in
    (match d.fault with Some m -> invalid_arg m | None -> ());
    t.pending <- i;
    match d.fetch with
    | F_local -> apply_exec t d ~cycle
    | F_cached when Cache.access (cache t.icache) ~addr:d.pc ~write:false = Cache.hit ->
      apply_exec t d ~cycle
    | F_cached | F_uncached ->
      (* I-cache lines are never dirty: victims drop silently *)
      if d.fetch = F_cached then t.pcache_miss <- t.pcache_miss + 1;
      issue t ~target:d.ftarget ~op:Op.Code ~addr:d.pc ~folded:false ~cycle;
      t.phase <- Wait_fetch
  end

let completed t ~cycle = Sri.done_at t.sri ~core:t.core_id <= cycle
let stall t = Sri.stall t.sri ~core:t.core_id

let step t ~cycle =
  t.synced <- cycle;
  if t.phase <> Done then begin
    t.ccnt <- t.ccnt + 1;
    match t.phase with
    | Done -> ()
    | Start -> begin_instruction t ~cycle
    | Busy -> if t.busy <= 1 then t.phase <- Start else t.busy <- t.busy - 1
    | Wait_fetch ->
      if completed t ~cycle then begin
        t.pmem_stall <- t.pmem_stall + stall t;
        apply_exec t t.code.(t.pending) ~cycle
      end
    | Wait_writeback ->
      if completed t ~cycle then begin
        t.dmem_stall <- t.dmem_stall + stall t;
        let d = t.code.(t.pending) in
        issue t ~target:d.etarget ~op:Op.Data ~addr:d.operand ~folded:false ~cycle;
        t.phase <- Wait_data
      end
    | Wait_data ->
      if completed t ~cycle then begin
        t.dmem_stall <- t.dmem_stall + stall t;
        t.phase <- Start
      end
  end

let finished t = t.phase = Done

(* --- Event-driven scheduling -------------------------------------------
   Between two observable actions a core only increments CCNT: a [Busy]
   core spends [busy] silent cycles, a waiting core idles until its
   transaction's [done_at]. [wake] reports the next cycle at which
   stepping the core does more than count; [advance] batches the skipped
   CCNT cycles and performs the regular [step] at that cycle; [settle]
   accounts a contender's tail cycles when the run ends between its
   wake-ups. *)

let wake t =
  match t.phase with
  | Done -> max_int
  | Start -> t.synced + 1
  | Busy -> t.synced + t.busy + 1
  | Wait_fetch | Wait_writeback | Wait_data ->
    (* [done_at] is max_int until granted *)
    let d = Sri.done_at t.sri ~core:t.core_id in
    if d > t.synced + 1 then d else t.synced + 1

(* Counts [d] idle cycles, draining a [Busy] burst by as much. *)
let idle t d =
  t.ccnt <- t.ccnt + d;
  if t.phase = Busy then
    if d >= t.busy then t.phase <- Start else t.busy <- t.busy - d

let advance t ~cycle =
  if cycle <= t.synced then invalid_arg "Core_model.advance: cycle not ahead";
  (match t.phase with
   | Done | Start -> ()
   | Busy | Wait_fetch | Wait_writeback | Wait_data ->
     let skipped = cycle - t.synced - 1 in
     if skipped > 0 then idle t skipped);
  step t ~cycle

let settle t ~cycle =
  if cycle > t.synced then begin
    (match t.phase with
     | Done -> ()
     | Start ->
       (* a runnable core's wake is synced+1 <= cycle: the event loop
          always advances it first, so it can never need settling *)
       invalid_arg "Core_model.settle: core still runnable"
     | Busy | Wait_fetch | Wait_writeback | Wait_data -> idle t (cycle - t.synced));
    t.synced <- cycle
  end

let finish_cycle t =
  if t.finish_at < 0 then failwith "Core_model.finish_cycle: not finished";
  t.finish_at

let counters t =
  {
    Counters.ccnt = t.ccnt;
    pmem_stall = t.pmem_stall;
    dmem_stall = t.dmem_stall;
    pcache_miss = t.pcache_miss;
    dcache_miss_clean = t.dcache_miss_clean;
    dcache_miss_dirty = t.dcache_miss_dirty;
  }

(* The walker rewinds itself when the program ends, so restarting is pure
   phase bookkeeping. *)
let restart t =
  if t.phase <> Done then invalid_arg "Core_model.restart: program still running";
  t.phase <- Start;
  t.finish_at <- -1;
  t.restart_count <- t.restart_count + 1

let restarts t = t.restart_count
let core_id t = t.core_id
