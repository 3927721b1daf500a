type t = Code | Data

let all = [ Code; Data ]
let equal a b = a = b
let rank = function Code -> 0 | Data -> 1
let compare a b = Int.compare (rank a) (rank b)
let to_string = function Code -> "co" | Data -> "da"

let of_string = function
  | "co" | "code" -> Some Code
  | "da" | "data" -> Some Data
  | _ -> None

let pp fmt o = Format.pp_print_string fmt (to_string o)

let pair_count = 8
let pair_index target o = (Target.rank target * 2) + rank o

let valid target o =
  match (target, o) with
  | Target.Dfl, Code -> false
  | (Target.Dfl | Target.Pf0 | Target.Pf1 | Target.Lmu), (Code | Data) -> true

let valid_pairs =
  List.concat_map
    (fun t -> List.filter_map (fun o -> if valid t o then Some (t, o) else None) all)
    Target.all
