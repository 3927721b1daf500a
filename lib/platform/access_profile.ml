(* Dense representation over the 7 admissible (target, op) pairs. *)

let pairs = Array.of_list Op.valid_pairs
let npairs = Array.length pairs

(* [slots.(Op.pair_index t o)] is the pair's position in [pairs], or -1
   for the inadmissible (dfl, code) slot. *)
let slots =
  let a = Array.make Op.pair_count (-1) in
  Array.iteri (fun i (t, o) -> a.(Op.pair_index t o) <- i) pairs;
  a

let index target op =
  let i = slots.(Op.pair_index target op) in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Access_profile: inadmissible pair (%s, %s)"
         (Target.to_string target) (Op.to_string op));
  i

type t = int array (* length npairs *)

let zero = Array.make npairs 0

let make l =
  let a = Array.make npairs 0 in
  List.iter
    (fun ((target, op), n) ->
       if n < 0 then invalid_arg "Access_profile.make: negative count";
       let i = index target op in
       a.(i) <- a.(i) + n)
    l;
  a

let get p target op = p.(index target op)

let set p target op n =
  if n < 0 then invalid_arg "Access_profile.set: negative count";
  let a = Array.copy p in
  a.(index target op) <- n;
  a

let incr ?(by = 1) p target op =
  let a = Array.copy p in
  let i = index target op in
  a.(i) <- a.(i) + by;
  if a.(i) < 0 then invalid_arg "Access_profile.incr: negative count";
  a

let total p = Array.fold_left ( + ) 0 p

let total_op p op =
  let acc = ref 0 in
  Array.iteri (fun i n -> if Op.equal (snd pairs.(i)) op then acc := !acc + n) p;
  !acc

let total_target p target =
  let acc = ref 0 in
  Array.iteri
    (fun i n -> if Target.equal (fst pairs.(i)) target then acc := !acc + n)
    p;
  !acc

let fold f p init =
  let acc = ref init in
  Array.iteri
    (fun i n ->
       let t, o = pairs.(i) in
       acc := f t o n !acc)
    p;
  !acc

let map2 f a b = Array.init npairs (fun i -> f a.(i) b.(i))

let stall_cycles lat p op =
  fold
    (fun t o n acc ->
       if Op.equal o op then acc + (n * Latency.min_stall lat t o) else acc)
    p 0

let scale k p =
  if k < 0 then invalid_arg "Access_profile.scale: negative factor";
  Array.map (fun n -> n * k) p

let equal a b = a = b
let dominates a b = Array.for_all2 (fun x y -> x >= y) a b

let pp fmt p =
  Format.fprintf fmt "@[<h>{";
  Array.iteri
    (fun i n ->
       if n <> 0 then begin
         let t, o = pairs.(i) in
         Format.fprintf fmt " %s.%s=%d" (Target.to_string t) (Op.to_string o) n
       end)
    p;
  Format.fprintf fmt " }@]"
