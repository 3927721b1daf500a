(* Order statistics for the benchmark's reports. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has at least [beyond] samples above
   it: the [beyond + 1]-th largest sample, at percentile
   [100 (n - beyond) / n]. A tail needs at least as many samples at or
   below it as above it, so fewer than [2 * beyond] samples give [None]. *)
let tail ?(beyond = 10) xs =
  let n = List.length xs in
  if n < 2 * beyond then None
  else
    let a = Array.of_list (sorted xs) in
    let pct = 100. *. float_of_int (n - beyond) /. float_of_int n in
    Some (pct, a.(n - beyond - 1))

(* The tail of each equal-sized block of samples, and their median:
   the block size fixes the percentile, however many blocks a run fits.
   [None] when a block is too short for a tail. *)
let block_tail blocks =
  let tails = List.map tail blocks in
  if blocks = [] || List.mem None tails then None
  else
    let tails = List.filter_map Fun.id tails in
    Some (fst (List.hd tails), median (List.map snd tails))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0. then 0. else num /. den

(* Consecutive blocks of [size] samples; a shorter remainder is dropped. *)
let blocks ~size a =
  List.init (Array.length a / size) (fun i -> Array.to_list (Array.sub a (i * size) size))
