type kind = Compute of int | Load of int | Store of int

type instr = { pc : int; kind : kind }
type item = I of instr | Loop of { count : int; body : item list }

(* Compiled form: one flat int array walked with an explicit loop stack.
   An entry [c >= 0] is an index into [instrs]; a loop of [count >= 1]
   iterations is [-count], its body, then [loop_end]. Loops that can
   never yield an instruction (zero count, or only such loops inside)
   are dropped. *)
type t = {
  name : string;
  items : item list;
  instrs : instr array;
  code : int array;
  depth : int; (* deepest loop nesting in [code] *)
}

let loop_end = min_int

let rec yields = function
  | I _ -> true
  | Loop { count; body } -> count > 0 && List.exists yields body

let compile items =
  let instrs = ref [] and n = ref 0 and code = ref [] and depth = ref 0 in
  let emit c = code := c :: !code in
  let rec go d items =
    depth := max !depth d;
    List.iter
      (function
        | I i ->
          instrs := i :: !instrs;
          emit !n;
          incr n
        | Loop { count; body } as l ->
          if yields l then begin
            emit (-count);
            go (d + 1) body;
            emit loop_end
          end)
      items
  in
  go 0 items;
  (Array.of_list (List.rev !instrs), Array.of_list (List.rev !code), !depth)

let rec validate items =
  List.iter
    (function
      | I { kind = Compute n; _ } when n < 1 ->
        invalid_arg "Program.make: Compute below 1 cycle"
      | I _ -> ()
      | Loop { count; body } ->
        if count < 0 then invalid_arg "Program.make: negative loop count";
        validate body)
    items

let make ~name items =
  validate items;
  let instrs, code, depth = compile items in
  { name; items; instrs; code; depth }

let name p = p.name
let items p = p.items
let instr_count p = Array.length p.instrs
let instr p i = p.instrs.(i)

let seq ~pc_base ?(pc_stride = 4) kinds =
  List.mapi (fun i k -> I { pc = pc_base + (i * pc_stride); kind = k }) kinds

let loop count body = Loop { count; body }

let static_size p =
  let rec go items =
    List.fold_left
      (fun acc -> function I _ -> acc + 1 | Loop { body; _ } -> acc + go body)
      0 items
  in
  go p.items

let dynamic_length p =
  let rec go items =
    List.fold_left
      (fun acc -> function
         | I _ -> acc + 1
         | Loop { count; body } -> acc + (count * go body))
      0 items
  in
  go p.items

let code_footprint p =
  let min_pc = ref max_int and max_pc = ref min_int in
  let rec go items =
    List.iter
      (function
        | I { pc; _ } ->
          if pc < !min_pc then min_pc := pc;
          if pc > !max_pc then max_pc := pc
        | Loop { body; _ } -> go body)
      items
  in
  go p.items;
  if !min_pc > !max_pc then [] else [ (!min_pc, !max_pc) ]

module Walker = struct
  type program = t

  (* [starts]/[remaining]: body start and iterations left of each open
     loop, innermost at [sp - 1]. *)
  type t = {
    prog : program;
    starts : int array;
    remaining : int array;
    mutable sp : int;
    mutable ip : int;
    mutable count : int;
  }

  let create prog =
    {
      prog;
      starts = Array.make prog.depth 0;
      remaining = Array.make prog.depth 0;
      sp = 0;
      ip = 0;
      count = 0;
    }

  let reset w =
    w.sp <- 0;
    w.ip <- 0;
    w.count <- 0

  let rec next w =
    let code = w.prog.code in
    if w.ip >= Array.length code then -1
    else begin
      let c = code.(w.ip) in
      if c >= 0 then begin
        w.ip <- w.ip + 1;
        w.count <- w.count + 1;
        c
      end
      else if c = loop_end then begin
        let top = w.sp - 1 in
        let r = w.remaining.(top) - 1 in
        if r > 0 then begin
          w.remaining.(top) <- r;
          w.ip <- w.starts.(top)
        end
        else begin
          w.sp <- top;
          w.ip <- w.ip + 1
        end;
        next w
      end
      else begin
        w.starts.(w.sp) <- w.ip + 1;
        w.remaining.(w.sp) <- -c;
        w.sp <- w.sp + 1;
        w.ip <- w.ip + 1;
        next w
      end
    end

  let executed w = w.count
end
