type entry = { lmax : int; lmin : int; min_stall : int }

(* Dense over [Op.pair_index]; the inadmissible (dfl, code) slot stays
   [None]. *)
type t = { entries : entry option array; lmu_dirty_lmax : int }

let make entries ~lmu_dirty_lmax =
  let table = Array.make Op.pair_count None in
  List.iter
    (fun (target, op, e) ->
       if not (Op.valid target op) then
         invalid_arg
           (Printf.sprintf "Latency.make: invalid pair (%s, %s)"
              (Target.to_string target) (Op.to_string op));
       (* The timing model requires 1 <= cs <= lmin <= lmax: the stall
          floor is achieved under streaming (lmin) and every observable
          wait is at least lmin. *)
       if not (1 <= e.min_stall && e.min_stall <= e.lmin && e.lmin <= e.lmax)
       then
         invalid_arg
           (Printf.sprintf
              "Latency.make: (%s, %s) must satisfy 1 <= cs <= lmin <= lmax"
              (Target.to_string target) (Op.to_string op));
       if Option.is_some table.(Op.pair_index target op) then
         invalid_arg
           (Printf.sprintf "Latency.make: duplicate pair (%s, %s)"
              (Target.to_string target) (Op.to_string op));
       table.(Op.pair_index target op) <- Some e)
    entries;
  List.iter
    (fun (target, op) ->
       if Option.is_none table.(Op.pair_index target op) then
         invalid_arg
           (Printf.sprintf "Latency.make: missing pair (%s, %s)"
              (Target.to_string target) (Op.to_string op)))
    Op.valid_pairs;
  { entries = table; lmu_dirty_lmax }

(* Paper Table 2. pf0 and pf1 share the PMU program-flash timing column. *)
let default =
  let pf_co = { lmax = 16; lmin = 12; min_stall = 6 } in
  let pf_da = { lmax = 16; lmin = 12; min_stall = 11 } in
  make
    [
      (Target.Lmu, Op.Code, { lmax = 11; lmin = 11; min_stall = 11 });
      (Target.Lmu, Op.Data, { lmax = 11; lmin = 11; min_stall = 10 });
      (Target.Pf0, Op.Code, pf_co);
      (Target.Pf0, Op.Data, pf_da);
      (Target.Pf1, Op.Code, pf_co);
      (Target.Pf1, Op.Data, pf_da);
      (Target.Dfl, Op.Data, { lmax = 43; lmin = 43; min_stall = 42 });
    ]
    ~lmu_dirty_lmax:21

let entry t target op =
  match t.entries.(Op.pair_index target op) with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Latency.entry: inadmissible pair (%s, %s)"
         (Target.to_string target) (Op.to_string op))

let lmax t target op = (entry t target op).lmax
let lmin t target op = (entry t target op).lmin
let min_stall t target op = (entry t target op).min_stall
let lmu_dirty_lmax t = t.lmu_dirty_lmax

let lmax_op ?(dirty = false) t target op =
  if dirty && Target.equal target Target.Lmu && Op.equal op Op.Data then
    t.lmu_dirty_lmax
  else lmax t target op

let admissible_targets = function
  | Op.Code -> Target.code_targets
  | Op.Data -> Target.data_targets

let cs_min t op =
  admissible_targets op
  |> List.map (fun target -> min_stall t target op)
  |> List.fold_left min max_int

(* Eq. 6: a code access of the task under analysis can be delayed by any
   co-runner request (code or data) to the code-reachable targets.
   Eq. 7: a data access can additionally collide on the data flash. *)
let worst_latency ?(dirty = false) t op =
  let collide_targets = admissible_targets op in
  List.fold_left
    (fun acc target ->
       List.fold_left
         (fun acc o ->
            if Op.valid target o then max acc (lmax_op ~dirty t target o)
            else acc)
         acc Op.all)
    0 collide_targets

let pp fmt t =
  Format.fprintf fmt "@[<v>target op  lmax lmin cs@,";
  List.iter
    (fun (target, op) ->
       let e = entry t target op in
       Format.fprintf fmt "%-6s %-3s %4d %4d %3d@," (Target.to_string target)
         (Op.to_string op) e.lmax e.lmin e.min_stall)
    Op.valid_pairs;
  Format.fprintf fmt "lmu dirty lmax: %d@]" t.lmu_dirty_lmax
