(* Bound ordering across the contention models.

   The paper's information hierarchy must hold numerically on any
   ground-truth task pair: the ideal model (Eq. 1, full per-target
   knowledge) is the tightest, the ILP-PTAC bound (Eq. 9, counter-consistent
   search) dominates it because the true PTAC assignment is among the
   searched ones, and the fTC bound (Eq. 8, no contender information)
   dominates the ILP because every interference variable is charged at most
   the interface-wide worst latency:

     ideal  <=  ILP-PTAC  <=  fTC

   The tests synthesize random ground-truth access profiles, derive the
   exact counter readings they would produce, and check the chain under the
   unrestricted setting and under Scenario 1 tailoring. *)

open Platform

let lat = Latency.default

(* mip_slack = 0: the default 16-cycle pruning slack compensates the
   reported delta upward, which is sound but would blur the comparison
   against the exact ideal value. *)
let exact_options =
  { Contention.Ilp_ptac.default_options with Contention.Ilp_ptac.mip_slack = 0 }

(* Counters a task with ground-truth profile [p] would read: stalls are the
   per-interface minimum-stall sums (the synthesis direction of Eqs. 20-23)
   and PCACHE_MISS counts the pf0/pf1 code requests, so the Scenario 1
   tailoring (Table 5) is satisfied exactly. *)
let counters_of p =
  let ps = Access_profile.stall_cycles lat p Op.Code in
  let ds = Access_profile.stall_cycles lat p Op.Data in
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

let gen_profile_pair scenario =
  let open QCheck.Gen in
  let pairs = Scenario.allowed_pairs scenario in
  let gen_profile =
    let* counts = list_repeat (List.length pairs) (int_range 0 12) in
    return (Access_profile.make (List.map2 (fun pr c -> (pr, c)) pairs counts))
  in
  pair gen_profile gen_profile

let bounds scenario pa pb =
  let a = counters_of pa and b = counters_of pb in
  let ideal = Contention.Ideal.contention_bound ~latency:lat ~a:pa ~b:pb () in
  let ftc =
    (Contention.Ftc.contention_bound ~latency:lat ~a ()).Contention.Ftc.delta
  in
  let ilp =
    Contention.Ilp_ptac.contention_bound ~options:exact_options ~latency:lat
      ~scenario ~a ~b ()
  in
  (ideal, Option.map (fun r -> r.Contention.Ilp_ptac.delta) ilp, ftc)

let ordering_prop scenario name =
  QCheck.Test.make ~name ~count:30
    (QCheck.make (gen_profile_pair scenario))
    (fun (pa, pb) ->
       match bounds scenario pa pb with
       | _, None, _ -> false (* Upper mode never rejects valid counters *)
       | ideal, Some ilp, ftc -> ideal <= ilp && ilp <= ftc)

let prop_order_unrestricted =
  ordering_prop Scenario.unrestricted "ideal <= ILP-PTAC <= fTC (unrestricted)"

let prop_order_scenario1 =
  ordering_prop Scenario.scenario1 "ideal <= ILP-PTAC <= fTC (scenario 1)"

(* --- deterministic instances ------------------------------------------------- *)

let test_hand_instance () =
  (* a: 10 code pf0, 5 data lmu; b: 3 code pf0, 9 data lmu.
     ideal = min(10,3)*16 + min(5,9)*11 = 103 (test_contention's Eq. 1 case);
     the ILP may additionally shift traffic across consistent assignments,
     so only the ordering is locked here. *)
  let pa =
    Access_profile.make [ ((Target.Pf0, Op.Code), 10); ((Target.Lmu, Op.Data), 5) ]
  in
  let pb =
    Access_profile.make [ ((Target.Pf0, Op.Code), 3); ((Target.Lmu, Op.Data), 9) ]
  in
  match bounds Scenario.unrestricted pa pb with
  | ideal, Some ilp, ftc ->
    Alcotest.(check int) "ideal (Eq. 1)" 103 ideal;
    Alcotest.(check bool) "ideal <= ilp" true (ideal <= ilp);
    Alcotest.(check bool) "ilp <= ftc" true (ilp <= ftc)
  | _, None, _ -> Alcotest.fail "unexpected ILP infeasibility"

let test_idle_contender_collapses () =
  (* no contender traffic: ideal = ilp = 0; fTC still pays for a's stalls *)
  let pa =
    Access_profile.make [ ((Target.Pf0, Op.Code), 8); ((Target.Lmu, Op.Data), 8) ]
  in
  let pb = Access_profile.zero in
  match bounds Scenario.scenario1 pa pb with
  | ideal, Some ilp, ftc ->
    Alcotest.(check int) "ideal 0" 0 ideal;
    Alcotest.(check int) "ilp 0" 0 ilp;
    Alcotest.(check bool) "ftc positive" true (ftc > 0)
  | _, None, _ -> Alcotest.fail "unexpected ILP infeasibility"

(* --- pinned search decisions ------------------------------------------------- *)

(* A fixed seeded set of ILP-PTAC models (counters synthesised as in
   [counters_of]) solved by the certified search (mip_slack = 0) and by
   the plain presolve-free search (mip_slack = 16), both under the 2 000
   node limit. Answers, node counts and pivot counts are pinned: they are
   functions of the search's decisions alone, so any change to how a
   node is evaluated (objective, branching variable, rounding incumbent,
   bound tightening) that changes a decision shows here. *)
let pinned_models () =
  let rng = Random.State.make [| 42 |] in
  let profile scenario max_count =
    Access_profile.make
      (List.map
         (fun pr -> (pr, Random.State.int rng (max_count + 1)))
         (Scenario.allowed_pairs scenario))
  in
  List.concat_map
    (fun (scenario, n, max_count) ->
       List.init n (fun _ ->
           let pa = profile scenario max_count in
           let pb = profile scenario max_count in
           fst
             (Contention.Ilp_ptac.build_model ~options:exact_options ~latency:lat
                ~scenario ~a:(counters_of pa) ~b:(counters_of pb) ())))
    [ (Scenario.scenario1, 2, 12); (Scenario.scenario2, 5, 6); (Scenario.unrestricted, 2, 6) ]

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.deterministic_snapshot ()))

(* "objective/nodes/pivots" of one search *)
let decisions solve m =
  let n0 = counter "ilp.bb.nodes" and p0 = counter "ilp.simplex.pivots" in
  let answer =
    match solve m with
    | Ilp.Solution.Optimal { objective; _ } -> Numeric.Q.to_string objective
    | Ilp.Solution.Infeasible -> "infeasible"
    | Ilp.Solution.Unbounded -> "unbounded"
    | exception Ilp.Branch_bound.Node_limit_exceeded -> "node-limit"
  in
  Printf.sprintf "%s/%d/%d" answer
    (counter "ilp.bb.nodes" - n0)
    (counter "ilp.simplex.pivots" - p0)

(* recorded from the search that converted every node to [Q] *)
let pinned_certified =
  [ "192/1/11"; "193/1/14"; "node-limit/2001/2129"; "node-limit/2001/2173";
    "118/11/28"; "112/1105/1173"; "177/49/57"; "240/1121/1386";
    "node-limit/2001/2249" ]

let pinned_plain =
  [ "192/1/11"; "193/1/14"; "224/1/18"; "240/3/16"; "112/3/19"; "112/1/18";
    "176/3/19"; "240/231/278"; "node-limit/2001/2917" ]

let test_pinned_decisions () =
  let models = pinned_models () in
  let certified =
    List.map
      (decisions (fun m -> fst (Ilp.Branch_bound.solve_certified ~node_limit:2000 m)))
      models
  in
  let plain =
    List.map
      (decisions
         (Ilp.Branch_bound.solve ~node_limit:2000 ~slack:(Numeric.Q.of_int 16)
            ~presolve:false))
      models
  in
  Alcotest.(check (list string)) "certified search" pinned_certified certified;
  Alcotest.(check (list string)) "plain presolve-free search" pinned_plain plain

let () =
  Alcotest.run "model-order"
    [
      ( "deterministic",
        [
          Alcotest.test_case "hand instance" `Quick test_hand_instance;
          Alcotest.test_case "idle contender" `Quick test_idle_contender_collapses;
          Alcotest.test_case "pinned search decisions" `Quick test_pinned_decisions;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_order_unrestricted; prop_order_scenario1 ] );
    ]
