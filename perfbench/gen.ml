(* Seeded input generators. Every input the benchmark feeds the program
   is derived here from the workload seed alone, so one seed always
   yields byte-identical inputs ([to_string] renders them for the test
   that pins this). *)

open Platform

let latency = Latency.default

type kind = S1 | S2 | Unr

let kind_name = function S1 -> "scenario1" | S2 -> "scenario2" | Unr -> "unrestricted"

let scenario_of = function
  | S1 -> Scenario.scenario1
  | S2 -> Scenario.scenario2
  | Unr -> Scenario.unrestricted

type instance = {
  kind : kind;
  pa : Access_profile.t;  (** ground-truth profile of the task under analysis *)
  pb : Access_profile.t;  (** ground-truth profile of the contender *)
  a : Counters.t;
  b : Counters.t;
}

(* The readings a task with ground-truth profile [p] would produce: the
   per-interface minimum-stall sums and the exact PCACHE_MISS count, so
   Scenario 1's tailoring holds (the synthesis of test_model_order). *)
let counters_of p =
  let ps = Access_profile.stall_cycles latency p Op.Code in
  let ds = Access_profile.stall_cycles latency p Op.Data in
  {
    Counters.ccnt = ps + ds + 1000;
    pmem_stall = ps;
    dmem_stall = ds;
    pcache_miss =
      Access_profile.get p Target.Pf0 Op.Code
      + Access_profile.get p Target.Pf1 Op.Code;
    dcache_miss_clean = 0;
    dcache_miss_dirty = 0;
  }

let profile rng scenario ~max_count =
  Access_profile.make
    (List.map
       (fun pr -> (pr, Random.State.int rng (max_count + 1)))
       (Scenario.allowed_pairs scenario))

let instance rng kind ~max_count =
  let scenario = scenario_of kind in
  let pa = profile rng scenario ~max_count in
  let pb = profile rng scenario ~max_count in
  { kind; pa; pb; a = counters_of pa; b = counters_of pb }

(* One corpus slice: 2 tailored Scenario 1 pairs (one B&B node each),
   8 Scenario 2 pairs (tens to 2 000 nodes) and 2 unrestricted pairs
   (usually at the node limit on the certified path). Counts stay small
   (at most 8 and 4 accesses per pair) so that no single instance
   dominates a run: with 12 accesses per unrestricted pair, one plain
   solve can take over 20 s. *)
let slice_mix = [ (S1, 2, 12); (S2, 8, 6); (Unr, 2, 6) ]

(* The corpus the gated figures come from: [anchor_slices] slices from
   [anchor_seed] (the seed of the measurements this corpus follows),
   the same for every workload seed. Per-solve times are heavy-tailed,
   and how many node-limit instances a seed draws moved a run's totals
   by 20-30%, more than a metric's bound; a slice from the workload seed
   adds fresh instances that are checked and reported alongside. *)
let anchor_seed = 42
let anchor_slices = 5

let slice ~seed index =
  let rng = Random.State.make [| seed; 1; index |] in
  List.concat_map
    (fun (kind, n, max_count) ->
       List.init n (fun _ -> instance rng kind ~max_count))
    slice_mix

let instance_to_string i =
  Format.asprintf "%s a=[%a] b=[%a]" (kind_name i.kind) Access_profile.pp i.pa
    Access_profile.pp i.pb

(* --- serve query mix --------------------------------------------------- *)

module P = Serve.Protocol

let levels = Workload.Load_gen.all_levels

let models_of_mask mask =
  List.filteri
    (fun i _ -> mask land (1 lsl i) <> 0)
    [ P.Ftc; P.Ilp_ptac; P.Ideal ]

let popcount m = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type serve_mix = {
  distinct : P.analyze list;  (** computed once in the cold phase *)
  lint_fail : P.analyze list;  (** sent in the cold phase; each must be rejected by lint *)
  hot : P.analyze array array;  (** one request sequence per client *)
}

let clients = 2

(* The hot phase replays the resident queries round-robin: no traffic
   record exists to take a skew from. [hot_rounds] sets its length; each
   client makes [hot_rounds / clients] passes over the distinct queries,
   starting at its own offset. *)
let hot_rounds = 250
let hot_block = 100  (* requests per tail sample: the tail is their p90 *)

(* Stratified so that every seed costs the same: per scenario, each load
   level once as a single contender on core 1, and once on each core of
   a two-contender pair whose pairing is a seeded permutation — the same
   simulations for every seed. Each contender set gets two queries, the
   first observed; their numbers of models follow a fixed cycle — (1, 3),
   (2, 2), (3, 1) — and the seed picks which models. *)
let serve_mix ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let query ~id ~scenario ~contenders ~models ~observed =
    { P.id; scenario; app = P.App_bundled; contenders; models; observed; trace = None }
  in
  let masks size = List.filter (fun m -> popcount m = size) [ 1; 2; 3; 4; 5; 6; 7 ] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let distinct =
    List.concat_map
      (fun scenario ->
         let perm = shuffle rng levels in
         let singles =
           List.map (fun level -> [ P.Con_level { level; core = 1 } ]) levels
         in
         let pairs =
           List.map2
             (fun l1 l2 ->
                [ P.Con_level { level = l1; core = 1 };
                  P.Con_level { level = l2; core = 2 } ])
             levels perm
         in
         List.concat
           (List.mapi
              (fun ci contenders ->
                 let k = ci mod 3 in
                 let m1 = pick (masks (1 + k)) in
                 let m2 = pick (List.filter (( <> ) m1) (masks (3 - k))) in
                 List.mapi
                   (fun qi mask ->
                      query
                        ~id:(Printf.sprintf "%s/c%d/q%d" scenario ci qi)
                        ~scenario ~contenders ~models:(models_of_mask mask)
                        ~observed:(qi = 0))
                   [ m1; m2 ])
              (singles @ pairs)))
      [ "scenario1"; "scenario2" ]
  in
  (* per scenario, a contender loading from a seeded unmapped address:
     program lint rejects it before anything is simulated *)
  let lint_fail =
    List.mapi
      (fun i scenario ->
        let addr = 0x1000 + (16 * Random.State.int rng 64) in
        query
          ~id:(Printf.sprintf "lint/%d" i)
          ~scenario
          ~contenders:
            [
              P.Con_inline
                {
                  ccore = 1;
                  cprogram =
                    {
                      P.pname = Printf.sprintf "bad-load-%d" i;
                      pitems =
                        [
                          Tcsim.Program.I
                            {
                              pc = Tcsim.Memory_map.pspr_base;
                              kind = Tcsim.Program.Load addr;
                            };
                        ];
                    };
                };
            ]
          ~models:[ P.Ftc ] ~observed:false)
      [ "scenario1"; "scenario2" ]
  in
  let ranked = Array.of_list distinct in
  let n = Array.length ranked in
  let hot =
    Array.init clients (fun c ->
        Array.init (hot_rounds / clients * n) (fun i -> ranked.(((c * n / clients) + i) mod n)))
  in
  { distinct; lint_fail; hot }

let serve_mix_to_string m =
  let line q = P.encode_request ~version:1 (P.Analyze q) in
  String.concat "\n"
    (List.map line m.distinct @ List.map line m.lint_fail
     @ List.concat_map (fun a -> List.map (fun q -> q.P.id) (Array.to_list a))
         (Array.to_list m.hot))
