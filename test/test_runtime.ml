(* Tests for the deterministic domain pool and the content-addressed solve
   cache.

   Pool coverage: every task runs exactly once, results come back in input
   order regardless of the parallel degree, the first (input-order)
   exception propagates after the batch drains, and AURIX_JOBS parsing.
   Solve_cache coverage: hit/miss accounting, key sensitivity to the model
   and the solver parameters, and caching of the node-limit outcome.
   Run_cache coverage: the same single-flight guarantees for whole
   simulator runs — key sensitivity (kernel, programs, priorities,
   flags; never names), cycle-limit replay, and hit/miss totals that are
   invariant across parallel degrees. *)

open Numeric

let q = Q.of_int

exception Boom of int

(* --- pool -------------------------------------------------------------------- *)

let test_map_preserves_order () =
  List.iter
    (fun jobs ->
       let n = 50 in
       let input = List.init n (fun i -> i) in
       let out = Runtime.Pool.map ~jobs (fun i -> (i * 2) + 1) input in
       Alcotest.(check (list int))
         (Printf.sprintf "jobs=%d" jobs)
         (List.map (fun i -> (i * 2) + 1) input)
         out)
    [ 1; 2; 4; 7 ]

let test_tasks_run_exactly_once () =
  let n = 40 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let tasks =
    List.init n (fun i () ->
        Atomic.incr hits.(i);
        i)
  in
  let out = Runtime.Pool.run_all ~jobs:4 tasks in
  Alcotest.(check (list int)) "results in input order" (List.init n Fun.id) out;
  Array.iteri
    (fun i a ->
       Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 (Atomic.get a))
    hits

let test_exception_propagates () =
  List.iter
    (fun jobs ->
       match
         Runtime.Pool.run_all ~jobs
           [ (fun () -> 1); (fun () -> raise (Boom 1)); (fun () -> 2) ]
       with
       | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
       | exception Boom 1 -> ())
    [ 1; 4 ]

let test_first_exception_in_input_order () =
  (* parallel path: make the later-listed failure finish first; the batch
     still reports the earliest failing task *)
  let tasks =
    [
      (fun () ->
         Unix.sleepf 0.05;
         raise (Boom 0));
      (fun () -> raise (Boom 1));
    ]
  in
  (match Runtime.Pool.run_all ~jobs:2 tasks with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom i -> Alcotest.(check int) "earliest task wins" 0 i)

let test_all_tasks_complete_despite_exception () =
  let ran = Atomic.make 0 in
  let tasks =
    List.init 10 (fun i () ->
        Atomic.incr ran;
        if i = 3 then raise (Boom i))
  in
  (match Runtime.Pool.run_all ~jobs:4 tasks with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom _ -> ());
  Alcotest.(check int) "parallel batch drains fully" 10 (Atomic.get ran)

let test_both () =
  List.iter
    (fun jobs ->
       let a, b = Runtime.Pool.both ~jobs (fun () -> "l") (fun () -> 42) in
       Alcotest.(check string) "left" "l" a;
       Alcotest.(check int) "right" 42 b)
    [ 1; 2 ]

let test_tasks_counter () =
  let before = Runtime.Pool.tasks_run () in
  ignore (Runtime.Pool.map ~jobs:2 Fun.id [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "five tasks accounted" 5 (Runtime.Pool.tasks_run () - before)

let test_default_jobs_env () =
  let check expect v =
    Unix.putenv "AURIX_JOBS" v;
    Alcotest.(check int) (Printf.sprintf "AURIX_JOBS=%s" v) expect
      (Runtime.Pool.default_jobs ())
  in
  check 3 "3";
  check 1 "1";
  check 128 "9999" (* clamped *);
  Unix.putenv "AURIX_JOBS" "nonsense";
  Alcotest.(check bool) "unparsable falls back to domain count" true
    (Runtime.Pool.default_jobs () >= 1);
  Unix.putenv "AURIX_JOBS" ""

let test_with_pool_reuse () =
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "degree" 3 (Runtime.Pool.jobs pool);
      let a = Runtime.Pool.map_in pool (fun i -> i + 1) [ 1; 2; 3 ] in
      let b = Runtime.Pool.map_in pool (fun i -> i * 10) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] a;
      Alcotest.(check (list int)) "second batch" [ 10; 20; 30 ] b)

(* --- scheduler: promises, helping, stealing ----------------------------------- *)

(* deterministic busy work so task costs are real compute, not sleeps *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

let test_spawn_await () =
  List.iter
    (fun jobs ->
       Runtime.Pool.with_pool ~jobs (fun pool ->
           let t = Runtime.Pool.spawn pool (fun () -> spin 1000 + 1) in
           Alcotest.(check int)
             (Printf.sprintf "jobs=%d" jobs)
             (spin 1000 + 1)
             (Runtime.Pool.await pool t)))
    [ 1; 4 ]

let test_await_failure () =
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      let t = Runtime.Pool.spawn pool (fun () -> raise (Boom 7)) in
      match Runtime.Pool.await pool t with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ())

let test_promise_fulfill () =
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      let p = Runtime.Pool.Task.create () in
      Alcotest.(check bool) "pending" true (Runtime.Pool.Task.peek p = None);
      ignore
        (Runtime.Pool.spawn pool (fun () -> Runtime.Pool.Task.fulfill p 99));
      Alcotest.(check int) "awaited" 99 (Runtime.Pool.await pool p);
      match Runtime.Pool.Task.fulfill p 1 with
      | () -> Alcotest.fail "second fulfill must be rejected"
      | exception Invalid_argument _ -> ())

let test_nested_run_all_on_workers () =
  (* tasks block on a nested batch of the same pool: awaiters help
     instead of deadlocking (the old FIFO pool documented this as
     forbidden) *)
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      let out =
        Runtime.Pool.map_in pool
          (fun i ->
             List.fold_left ( + ) 0
               (Runtime.Pool.run_all ~jobs:3
                  (List.init 4 (fun j () -> (10 * i) + j))))
          [ 1; 2; 3; 4; 5; 6 ]
      in
      Alcotest.(check (list int)) "nested batches compose"
        (List.map (fun i -> (40 * i) + 6) [ 1; 2; 3; 4; 5; 6 ])
        out)

let test_both_nested_on_workers () =
  (* both inside pool tasks routes through the scheduler, spawning no
     extra domains, and stays deterministic *)
  let expected = List.init 8 (fun i -> (i, -i)) in
  List.iter
    (fun jobs ->
       let out =
         Runtime.Pool.map ~jobs
           (fun i ->
              Runtime.Pool.both
                (fun () -> ignore (spin (100 * i)); i)
                (fun () -> -i))
           (List.init 8 Fun.id)
       in
       Alcotest.(check (list (pair int int)))
         (Printf.sprintf "jobs=%d" jobs)
         expected out)
    [ 1; 4 ]

let test_steal_hammer () =
  (* skewed task costs on 4 domains: early tasks are two orders of
     magnitude heavier, so the owner's deque drains by theft; results,
     exactly-once accounting and the task counter must not notice *)
  let n = 64 in
  let cost i = if i mod 8 = 0 then 200_000 else 500 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let batch () =
    List.init n (fun i () ->
        Atomic.incr hits.(i);
        spin (cost i) lxor i)
  in
  let before = Runtime.Pool.tasks_run () in
  let r4 = Runtime.Pool.run_all ~jobs:4 (batch ()) in
  Alcotest.(check int) "tasks accounted once" n
    (Runtime.Pool.tasks_run () - before);
  Array.iteri
    (fun i a ->
       Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1
         (Atomic.get a))
    hits;
  (* determinism oracle: byte-identical to the sequential schedule and
     to a repeated parallel run *)
  let r1 = Runtime.Pool.run_all ~jobs:1 (batch ()) in
  let r4' = Runtime.Pool.run_all ~jobs:4 (batch ()) in
  Alcotest.(check (list int)) "parallel = sequential" r1 r4;
  Alcotest.(check (list int)) "parallel repeatable" r4 r4'

let test_await_never_steals () =
  (* a promise awaiter helps from its own deque and the injector only —
     never from another worker's private deque (the old help-loop's
     steal churn). The hammer tasks below exist only in a worker's own
     deque: a batch submitted from a worker is pushed there, not to the
     injector. The main domain awaits a promise the whole time the
     hammers are runnable, so under no-steal await it is deterministically
     impossible for any hammer to execute on the main domain. *)
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      let main = (Domain.self () :> int) in
      let started = Atomic.make false in
      let on_main = Atomic.make 0 in
      let p = Runtime.Pool.Task.create () in
      ignore
        (Runtime.Pool.spawn pool (fun () ->
             Atomic.set started true;
             let sum =
               List.fold_left ( + ) 0
                 (Runtime.Pool.run_all_in pool
                    (List.init 100 (fun i () ->
                         if (Domain.self () :> int) = main then
                           Atomic.incr on_main;
                         spin 2_000 lxor i)))
             in
             Runtime.Pool.Task.fulfill p sum));
      (* busy-wait (not await) until a worker owns the batch submitter,
         so the submitter itself cannot land on the main domain via the
         awaiter's injector help *)
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      let expected =
        List.fold_left ( + ) 0 (List.init 100 (fun i -> spin 2_000 lxor i))
      in
      Alcotest.(check int) "awaited sum" expected (Runtime.Pool.await pool p);
      Alcotest.(check int) "no hammer ran on the awaiting main domain" 0
        (Atomic.get on_main))

let test_shared_pool () =
  let p = Runtime.Pool.shared () in
  Alcotest.(check bool) "same instance" true (p == Runtime.Pool.shared ());
  Alcotest.(check (list int)) "usable" [ 2; 4; 6 ]
    (Runtime.Pool.map_in p (fun i -> 2 * i) [ 1; 2; 3 ])

(* --- dag ----------------------------------------------------------------------- *)

let test_dag_basic () =
  List.iter
    (fun jobs ->
       let open Runtime.Dag in
       let dag = create () in
       let a = node ~label:"a" dag ~deps:[] (fun () -> 2) in
       let b = node ~label:"b" dag ~deps:[ dep a ] (fun () -> get a * 3) in
       let c = node ~label:"c" dag ~deps:[ dep a ] (fun () -> get a + 10) in
       let d =
         node ~label:"d" dag ~deps:[ dep b; dep c ] (fun () -> get b + get c)
       in
       run ~jobs dag;
       Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) 18 (get d))
    [ 1; 4 ]

let test_dag_skip_propagation () =
  let open Runtime.Dag in
  let dag = create () in
  let a = node ~label:"a" dag ~deps:[] (fun () -> raise (Boom 3)) in
  let ran_b = ref false in
  let b =
    node ~label:"b" dag ~deps:[ dep a ] (fun () ->
        ran_b := true;
        0)
  in
  let c = node ~label:"c" dag ~deps:[] (fun () -> 5) in
  (match run ~jobs:4 dag with
   | () -> Alcotest.fail "expected Boom"
   | exception Boom 3 -> ());
  Alcotest.(check bool) "skipped node never executed" false !ran_b;
  Alcotest.(check int) "independent node still ran" 5 (get c);
  (match get b with
   | _ -> Alcotest.fail "expected Dependency_failed"
   | exception Dependency_failed { node = "b"; dep = "a" } -> ()
   | exception Dependency_failed _ -> Alcotest.fail "wrong edge reported")

let test_dag_first_failure_by_node_id () =
  (* node 0 is slow and fails; node 1 fails instantly: the raised
     failure is node 0's on every schedule *)
  List.iter
    (fun jobs ->
       let open Runtime.Dag in
       let dag = create () in
       ignore
         (node ~label:"slow" dag ~deps:[] (fun () ->
              ignore (spin 200_000);
              raise (Boom 0)));
       ignore (node ~label:"fast" dag ~deps:[] (fun () -> raise (Boom 1)));
       match run ~jobs dag with
       | () -> Alcotest.fail "expected Boom"
       | exception Boom i ->
         Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) 0 i)
    [ 1; 4 ]

let test_dag_node_counter_invariant () =
  let count jobs =
    let open Runtime.Dag in
    let dag = create () in
    let a = node dag ~deps:[] (fun () -> 1) in
    let b = node dag ~deps:[ dep a ] (fun () -> get a + 1) in
    ignore (node dag ~deps:[ dep a; dep b ] (fun () -> get a + get b));
    let before = Runtime.Pool.tasks_run () in
    run ~jobs dag;
    Runtime.Pool.tasks_run () - before
  in
  let c1 = count 1 in
  let c4 = count 4 in
  Alcotest.(check int) "one task per node" 3 c1;
  Alcotest.(check int) "task totals jobs-invariant" c1 c4

(* Random DAGs: completion order respects every edge and results are
   identical at jobs=1/4/8. Node "durations" are injected determinist-
   ically from the spec (busy spins), skewing schedules without
   touching the clock. *)
let dag_spec_gen =
  QCheck.Gen.(
    sized_size (int_range 2 18) (fun n ->
        let node_spec i =
          (* deps drawn from strictly earlier nodes; weight = duration *)
          let* weight = int_range 0 2000 in
          let* deps =
            if i = 0 then return []
            else list_size (int_range 0 (min i 3)) (int_range 0 (i - 1))
          in
          return (weight, List.sort_uniq compare deps)
        in
        let rec build i acc =
          if i >= n then return (List.rev acc)
          else
            let* s = node_spec i in
            build (i + 1) (s :: acc)
        in
        build 0 []))

let dag_spec_print spec =
  String.concat ";"
    (List.mapi
       (fun i (w, deps) ->
          Printf.sprintf "%d:(w=%d deps=[%s])" i w
            (String.concat "," (List.map string_of_int deps)))
       spec)

let run_dag_spec spec jobs =
  let open Runtime.Dag in
  let dag = create () in
  let order = ref [] in
  let order_lock = Mutex.create () in
  let nodes = Array.make (List.length spec) None in
  List.iteri
    (fun i (weight, deps) ->
       let deps =
         List.map
           (fun j ->
              match nodes.(j) with Some n -> dep n | None -> assert false)
           deps
       in
       nodes.(i) <-
         Some
           (node ~label:(string_of_int i) dag ~deps (fun () ->
                let v = spin weight lxor i in
                Mutex.lock order_lock;
                order := i :: !order;
                Mutex.unlock order_lock;
                v)))
    spec;
  run ~jobs dag;
  let results =
    Array.to_list
      (Array.map (function Some n -> get n | None -> assert false) nodes)
  in
  (results, List.rev !order)

let dag_respects_edges =
  QCheck.Test.make ~count:40 ~name:"random dag: edges respected, results jobs-invariant"
    (QCheck.make ~print:dag_spec_print dag_spec_gen)
    (fun spec ->
       let r1, _ = run_dag_spec spec 1 in
       List.for_all
         (fun jobs ->
            let r, completed = run_dag_spec spec jobs in
            let pos = Hashtbl.create 16 in
            List.iteri (fun at i -> Hashtbl.replace pos i at) completed;
            let edge_ok i (_, deps) =
              List.for_all
                (fun d -> Hashtbl.find pos d < Hashtbl.find pos i)
                deps
            in
            r = r1
            && List.length completed = List.length spec
            && List.for_all2 edge_ok
                 (List.init (List.length spec) Fun.id)
                 spec)
         [ 1; 4; 8 ])

(* --- solve cache -------------------------------------------------------------- *)

let knapsack_model ?(capacity = 50) () =
  let m = Ilp.Model.create () in
  let add v w name =
    let x = Ilp.Model.add_var m ~integer:true ~ub:Q.one name in
    ((q v, x), (q w, x))
  in
  let (v1, w1) = add 60 10 "item1" in
  let (v2, w2) = add 100 20 "item2" in
  let (v3, w3) = add 120 30 "item3" in
  Ilp.Model.add_constraint m
    (Ilp.Linexpr.of_terms [ w1; w2; w3 ])
    Ilp.Model.Le (q capacity);
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.of_terms [ v1; v2; v3 ]);
  m

let objective_exn = function
  | Ilp.Solution.Optimal { objective; _ } -> objective
  | _ -> Alcotest.fail "expected optimal"

let test_cache_hit_on_identical_model () =
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let s1 = Runtime.Solve_cache.solve_ilp (knapsack_model ()) in
  let s2 = Runtime.Solve_cache.solve_ilp (knapsack_model ()) in
  Alcotest.(check string) "same optimum" "220"
    (Q.to_string (objective_exn s1));
  Alcotest.(check string) "cached result identical" "220"
    (Q.to_string (objective_exn s2));
  let { Runtime.Solve_cache.hits; misses; raw_hits; canonical_hits; waited } =
    Runtime.Solve_cache.stats ()
  in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "identical model is a raw hit" 1 raw_hits;
  Alcotest.(check int) "not a canonical hit" 0 canonical_hits;
  Alcotest.(check int) "nobody waited" 0 waited;
  Alcotest.(check int) "one entry" 1 (Runtime.Solve_cache.size ())

let test_cache_miss_on_perturbed_model () =
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  ignore (Runtime.Solve_cache.solve_ilp (knapsack_model ()));
  ignore (Runtime.Solve_cache.solve_ilp (knapsack_model ~capacity:40 ()));
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "two misses" 2 misses;
  Alcotest.(check int) "no hits" 0 hits

let test_cache_distinguishes_solvers_and_params () =
  let m = knapsack_model () in
  let k = Runtime.Solve_cache.key ~tag:"x" m in
  Alcotest.(check bool) "tag enters the key" false
    (String.equal k (Runtime.Solve_cache.key ~tag:"y" m));
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  ignore (Runtime.Solve_cache.solve_lp m);
  ignore (Runtime.Solve_cache.solve_ilp m);
  ignore (Runtime.Solve_cache.solve_ilp ~slack:(q 5) m);
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "lp / ilp / ilp+slack are distinct entries" 3 misses;
  Alcotest.(check int) "no spurious hits" 0 hits

let test_cache_key_ignores_names () =
  (* content addressing is semantic: variable names don't enter the key *)
  let build name =
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true ~ub:(q 7) name in
    Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
    m
  in
  Alcotest.(check string) "renamed model, same key"
    (Runtime.Solve_cache.key ~tag:"t" (build "x"))
    (Runtime.Solve_cache.key ~tag:"t" (build "renamed"))

let test_cache_canonical_twin_hits () =
  (* structural twins — the same program built with variables created in
     the opposite order and one row scaled by 3 — share one canonical
     entry; the second request is a canonical (not raw) hit and its
     values come back in its own variable frame *)
  let build flipped =
    let m = Ilp.Model.create () in
    let mk name = Ilp.Model.add_var m ~integer:true ~ub:Q.one name in
    let a, b =
      if flipped then
        let b = mk "b" in
        let a = mk "a" in
        (a, b)
      else
        let a = mk "a" in
        let b = mk "b" in
        (a, b)
    in
    let s = if flipped then q 3 else Q.one in
    Ilp.Model.add_constraint m
      (Ilp.Linexpr.of_terms [ (Q.mul s (q 10), a); (Q.mul s (q 20), b) ])
      Ilp.Model.Le (Q.mul s (q 25));
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (q 60, a); (q 100, b) ]);
    (m, a, b)
  in
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let m1, a1, b1 = build false in
  let m2, a2, b2 = build true in
  Alcotest.(check bool) "raw keys differ" false
    (String.equal
       (Runtime.Solve_cache.key ~tag:"t" m1)
       (Runtime.Solve_cache.key ~tag:"t" m2));
  Alcotest.(check string) "canonical keys agree"
    (Runtime.Solve_cache.canonical_key ~tag:"t" (Ilp.Canonical.of_model m1))
    (Runtime.Solve_cache.canonical_key ~tag:"t" (Ilp.Canonical.of_model m2));
  let s1 = Runtime.Solve_cache.solve_ilp m1 in
  let s2 = Runtime.Solve_cache.solve_ilp m2 in
  (* capacity 25 admits only item b: a = 0, b = 1, objective 100 *)
  List.iter
    (fun (s, a, b) ->
       Alcotest.(check string) "objective" "100" (Q.to_string (objective_exn s));
       Alcotest.(check string) "a = 0" "0"
         (Q.to_string (Ilp.Solution.value_exn s a));
       Alcotest.(check string) "b = 1" "1"
         (Q.to_string (Ilp.Solution.value_exn s b)))
    [ (s1, a1, b1); (s2, a2, b2) ];
  let { Runtime.Solve_cache.hits; misses; raw_hits; canonical_hits; _ } =
    Runtime.Solve_cache.stats ()
  in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "no raw hit" 0 raw_hits;
  Alcotest.(check int) "the hit is canonical" 1 canonical_hits;
  Alcotest.(check int) "one entry" 1 (Runtime.Solve_cache.size ())

let test_cache_replays_node_limit () =
  (* a model the budget cannot finish: the exceptional outcome is cached
     and replayed as the same exception *)
  let hard () =
    (* LP optimum y = 5/2 is fractional and the fractional objective
       coefficient defeats the integral-bound pruning, so the search must
       branch — which a single-node budget forbids *)
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true "x" in
    let y = Ilp.Model.add_var m ~integer:true "y" in
    Ilp.Model.add_constraint m
      (Ilp.Linexpr.of_terms [ (q (-2), x); (q 2, y) ])
      Ilp.Model.Le Q.one;
    Ilp.Model.add_constraint m
      (Ilp.Linexpr.of_terms [ (q 2, x); (q 2, y) ])
      Ilp.Model.Le (q 9);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (Q.of_ints 1 2, y) ]);
    m
  in
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let solve () = Runtime.Solve_cache.solve_ilp ~node_limit:1 (hard ()) in
  (match solve () with
   | _ -> Alcotest.fail "expected Node_limit_exceeded"
   | exception Ilp.Branch_bound.Node_limit_exceeded -> ());
  (match solve () with
   | _ -> Alcotest.fail "expected cached Node_limit_exceeded"
   | exception Ilp.Branch_bound.Node_limit_exceeded -> ());
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "solved once" 1 misses;
  Alcotest.(check int) "replayed once" 1 hits

let test_cache_modes_share_node_limit_outcome () =
  (* max x/2 s.t. 3x <= 10: root presolve tightens x <= 3 and the search
     ends at the root, while the presolve-free search needs three nodes
     (the fractional coefficient defeats integral-bound pruning). Under a
     one-node budget the two disciplines would settle different
     outcomes; plain and audit-mode solves share a key, so both must run
     the presolve-free search the certificate needs. *)
  let model () =
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true "x" in
    Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms [ (q 3, x) ]) Ilp.Model.Le (q 10);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (Q.of_ints 1 2, x) ]);
    m
  in
  (match Ilp.Branch_bound.solve ~node_limit:1 (model ()) with
   | Ilp.Solution.Optimal _ -> ()
   | _ -> Alcotest.fail "presolved search should finish at the root");
  (match Ilp.Branch_bound.solve ~node_limit:1 ~presolve:false (model ()) with
   | _ -> Alcotest.fail "presolve-free search should exceed one node"
   | exception Ilp.Branch_bound.Node_limit_exceeded -> ());
  let settle ~audit =
    Runtime.Solve_cache.set_audit audit;
    Fun.protect
      ~finally:(fun () -> Runtime.Solve_cache.set_audit false)
      (fun () ->
         match Runtime.Solve_cache.solve_ilp ~node_limit:1 (model ()) with
         | Ilp.Solution.Optimal { objective; _ } -> Q.to_string objective
         | Ilp.Solution.Infeasible | Ilp.Solution.Unbounded -> "no optimum"
         | exception Ilp.Branch_bound.Node_limit_exceeded -> "node-limit")
  in
  Runtime.Solve_cache.clear ();
  let plain = settle ~audit:false in
  Runtime.Solve_cache.clear ();
  let audited = settle ~audit:true in
  Alcotest.(check string) "fresh plain and audited solves agree" audited plain;
  Alcotest.(check string) "both hit the node limit" "node-limit" plain;
  (* one key: the audited request replays the plain one's outcome *)
  Runtime.Solve_cache.clear ();
  ignore (settle ~audit:false);
  Alcotest.(check string) "audited replay" "node-limit" (settle ~audit:true);
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "solved once" 1 misses;
  Alcotest.(check int) "replayed once" 1 hits;
  Runtime.Solve_cache.clear ()

let test_cache_single_flight () =
  (* eight concurrent requests for one key: the first installs the entry
     and solves, the other seven block on it and count as hits — the
     hit/miss totals match the sequential schedule exactly *)
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let results =
    Runtime.Pool.run_all ~jobs:4
      (List.init 8 (fun _ () -> Runtime.Solve_cache.solve_ilp (knapsack_model ())))
  in
  List.iter
    (fun s ->
       Alcotest.(check string) "every requester sees the optimum" "220"
         (Q.to_string (objective_exn s)))
    results;
  let { Runtime.Solve_cache.hits; misses; raw_hits; canonical_hits; waited } =
    Runtime.Solve_cache.stats ()
  in
  Alcotest.(check int) "solved exactly once" 1 misses;
  Alcotest.(check int) "everyone else hits" 7 hits;
  (* the raw/canonical split never double-counts waiters: identical
     requests are raw hits whether or not they blocked, and how many
     blocked is a timing fact bounded by the hit count *)
  Alcotest.(check int) "all hits are raw (same model)" 7 raw_hits;
  Alcotest.(check int) "no canonical hits" 0 canonical_hits;
  Alcotest.(check bool) "waited within hits" true (waited >= 0 && waited <= 7);
  Alcotest.(check int) "one entry" 1 (Runtime.Solve_cache.size ())

(* --- run cache ---------------------------------------------------------------- *)

let pspr = Tcsim.Memory_map.pspr_base
let lmu_nc = Tcsim.Memory_map.lmu_uncached_base
let dspr = Tcsim.Memory_map.dspr_base

let mk_prog ?(name = "p") ?(loads = 8) () =
  Tcsim.Program.make ~name
    [
      Tcsim.Program.I { pc = pspr; kind = Tcsim.Program.Compute 3 };
      Tcsim.Program.loop loads
        [ Tcsim.Program.I { pc = pspr; kind = Tcsim.Program.Load lmu_nc } ];
      Tcsim.Program.I { pc = pspr; kind = Tcsim.Program.Store dspr };
    ]

let mk_contender name =
  { Tcsim.Machine.program = mk_prog ~name ~loads:4 (); core = 1 }

let corun ?priorities ?(restart = false) ?kernel () =
  Runtime.Run_cache.run ?priorities ~restart_contenders:restart ?kernel
    ~trace:true
    ~analysis:{ Tcsim.Machine.program = mk_prog (); core = 0 }
    ~contenders:[ mk_contender "c" ]
    ()

let test_run_cache_hit_on_identical () =
  Runtime.Run_cache.clear ();
  let r1 = corun () in
  let r2 = corun () in
  Alcotest.(check bool) "identical result replayed" true (r1 = r2);
  let { Runtime.Run_cache.hits; misses; waited } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "nobody waited" 0 waited;
  Alcotest.(check int) "one entry" 1 (Runtime.Run_cache.size ())

let test_run_cache_key_sensitivity () =
  (* every input the outcome depends on perturbs the fingerprint; names
     do not (content addressing is semantic, as in Solve_cache) *)
  let fp ?(kernel = `Stepped) ?(restart = false) ?priorities ?(name = "a")
      ?(loads = 8) () =
    Runtime.Run_cache.fingerprint ~config:Tcsim.Machine.default_config
      ~max_cycles:1000 ~restart_contenders:restart ~priorities ~trace:false
      ~kernel
      ~analysis:{ Tcsim.Machine.program = mk_prog ~name ~loads (); core = 0 }
      ~contenders:[ mk_contender "c" ]
  in
  let base = fp () in
  Alcotest.(check string) "program names excluded" base (fp ~name:"b" ());
  let differs msg other = Alcotest.(check bool) msg false (String.equal base other) in
  differs "program content keyed" (fp ~loads:9 ());
  differs "kernel keyed" (fp ~kernel:`Event ());
  differs "restart flag keyed" (fp ~restart:true ());
  differs "priorities keyed" (fp ~priorities:[| 0; 1; 1 |] ())

let test_run_cache_kernels_share_nothing_but_agree () =
  (* the two kernels occupy distinct entries yet replay identical results *)
  Runtime.Run_cache.clear ();
  let s = corun ~kernel:`Stepped () in
  let e = corun ~kernel:`Event () in
  Alcotest.(check bool) "bit-identical across kernels" true (s = e);
  let { Runtime.Run_cache.misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "two entries, no aliasing" 2 misses

let test_run_cache_replays_cycle_limit () =
  Runtime.Run_cache.clear ();
  let spin () =
    Runtime.Run_cache.run ~max_cycles:50 ~restart_contenders:true
      ~analysis:{ Tcsim.Machine.program = mk_prog ~loads:500 (); core = 0 }
      ()
  in
  let observe () =
    match spin () with
    | _ -> Alcotest.fail "expected Cycle_limit_exceeded"
    | exception Tcsim.Machine.Cycle_limit_exceeded c -> c
  in
  let c1 = observe () in
  let c2 = observe () in
  Alcotest.(check int) "same payload replayed" c1 c2;
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "simulated once" 1 misses;
  Alcotest.(check int) "replayed once" 1 hits

let test_run_cache_single_flight () =
  Runtime.Run_cache.clear ();
  let results =
    Runtime.Pool.run_all ~jobs:4 (List.init 8 (fun _ () -> corun ()))
  in
  (match results with
   | r :: rest ->
     List.iter
       (fun r' ->
          Alcotest.(check bool) "every requester sees one result" true (r = r'))
       rest
   | [] -> Alcotest.fail "no results");
  let { Runtime.Run_cache.hits; misses; waited } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "simulated exactly once" 1 misses;
  Alcotest.(check int) "everyone else hits" 7 hits;
  Alcotest.(check bool) "waited within hits" true (waited >= 0 && waited <= 7);
  Alcotest.(check int) "one entry" 1 (Runtime.Run_cache.size ())

let test_run_cache_jobs_invariant () =
  (* the acceptance property: a mixed batch of requests produces the same
     results and the same hit/miss totals at jobs=1 and jobs=4 (only
     [waited], a timing fact, may differ) *)
  let batch () =
    List.init 12 (fun i () ->
        corun ~priorities:(if i mod 2 = 0 then [| 0; 0; 0 |] else [| 0; 1; 1 |]) ())
  in
  let observe jobs =
    Runtime.Run_cache.clear ();
    let rs = Runtime.Pool.run_all ~jobs (batch ()) in
    let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
    (rs, hits, misses)
  in
  let r1, h1, m1 = observe 1 in
  let r4, h4, m4 = observe 4 in
  Alcotest.(check bool) "results identical across parallel degrees" true (r1 = r4);
  Alcotest.(check int) "hits invariant" h1 h4;
  Alcotest.(check int) "misses invariant" m1 m4;
  Alcotest.(check int) "two distinct co-runs in the batch" 2 m1;
  Alcotest.(check int) "the other ten hit" 10 h1

(* --- run families through the cache ------------------------------------------- *)

let family_specs () =
  let analysis = { Tcsim.Machine.program = mk_prog (); core = 0 } in
  [
    Tcsim.Machine.spec ~analysis ();
    Tcsim.Machine.spec ~restart_contenders:false ~trace:true ~analysis
      ~contenders:[ mk_contender "c" ] ();
    Tcsim.Machine.spec ~restart_contenders:false ~priorities:[| 0; 1; 1 |]
      ~analysis ~contenders:[ mk_contender "c" ] ();
  ]

let solo_of_specs specs =
  List.map
    (fun s ->
       Runtime.Run_cache.run
         ~restart_contenders:s.Tcsim.Machine.sp_restart_contenders
         ?priorities:s.Tcsim.Machine.sp_priorities
         ~trace:s.Tcsim.Machine.sp_trace ~analysis:s.Tcsim.Machine.sp_analysis
         ~contenders:s.Tcsim.Machine.sp_contenders ())
    specs

let test_run_family_matches_solo_and_shares_entries () =
  (* family members land under exactly the key a solo run would use: a
     fresh family populates the cache (all misses), solo re-requests of
     every member then hit, and the results are bit-identical *)
  Runtime.Run_cache.clear ();
  let fam = Runtime.Run_cache.run_family (family_specs ()) in
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "three members simulated" 3 misses;
  Alcotest.(check int) "no hits yet" 0 hits;
  let solo = solo_of_specs (family_specs ()) in
  Alcotest.(check bool) "family results equal solo results" true (fam = solo);
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "solo runs replay family entries" 3 hits;
  Alcotest.(check int) "nothing re-simulated" 3 misses;
  (* and the converse: a warm cache makes a family all-hits *)
  let fam' = Runtime.Run_cache.run_family (family_specs ()) in
  Alcotest.(check bool) "warm family replays" true (fam' = fam);
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "family replays all members" 6 hits;
  Alcotest.(check int) "still three simulations" 3 misses

let test_run_family_outcomes_captures_cycle_limit () =
  (* [run_family] aborts at the raising member like Machine.run_family;
     [run_family_outcomes] captures it as that member's [Error] and
     still runs the rest *)
  Runtime.Run_cache.clear ();
  let heavy = { Tcsim.Machine.program = mk_prog ~loads:500 (); core = 0 } in
  let light = { Tcsim.Machine.program = mk_prog ~loads:2 (); core = 0 } in
  let specs =
    [
      Tcsim.Machine.spec ~analysis:light ();
      Tcsim.Machine.spec ~restart_contenders:true ~analysis:heavy ();
      Tcsim.Machine.spec ~analysis:{ light with Tcsim.Machine.core = 1 } ();
    ]
  in
  (match Runtime.Run_cache.run_family ~max_cycles:50 specs with
   | _ -> Alcotest.fail "expected Cycle_limit_exceeded"
   | exception Tcsim.Machine.Cycle_limit_exceeded _ -> ());
  match Runtime.Run_cache.run_family_outcomes ~max_cycles:50 specs with
  | [ Ok a; Error (Tcsim.Machine.Cycle_limit_exceeded c); Ok b ] ->
    Alcotest.(check bool) "limit payload past the budget" true (c > 50);
    Alcotest.(check bool) "members around the failure still run" true
      (a.Tcsim.Machine.cycles > 0 && b.Tcsim.Machine.cycles > 0)
  | _ -> Alcotest.fail "expected [Ok; Error Cycle_limit; Ok]"

(* --- telemetry ---------------------------------------------------------------- *)

let test_telemetry_measure () =
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let v, t =
    Runtime.Telemetry.measure ~jobs:2 (fun () ->
        ignore (Runtime.Solve_cache.solve_ilp (knapsack_model ()));
        Runtime.Pool.map ~jobs:2 Fun.id [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "value passed through" [ 1; 2; 3 ] v;
  Alcotest.(check int) "jobs recorded" 2 t.Runtime.Telemetry.jobs;
  Alcotest.(check int) "tasks recorded" 3 t.Runtime.Telemetry.tasks;
  Alcotest.(check int) "cache misses recorded" 1 t.Runtime.Telemetry.cache_misses;
  Alcotest.(check bool) "wall time non-negative" true
    (t.Runtime.Telemetry.wall_s >= 0.)

let test_telemetry_speedup_guarded () =
  let record wall_s =
    {
      Runtime.Telemetry.jobs = 1;
      tasks = 0;
      wall_s;
      cpu_s = 0.;
      cache_hits = 0;
      cache_misses = 0;
      cache_raw_hits = 0;
      cache_canonical_hits = 0;
      cache_waited = 0;
      run_cache_hits = 0;
      run_cache_misses = 0;
    }
  in
  (* a region faster than the clock granularity must not yield inf/nan *)
  let s = Runtime.Telemetry.speedup ~baseline:(record 1.0) (record 0.0) in
  Alcotest.(check bool) "zero-wall denominator stays finite" true
    (Float.is_finite s);
  Alcotest.(check (float 1e-9)) "two unmeasurable regions compare equal" 1.0
    (Runtime.Telemetry.speedup ~baseline:(record 0.0) (record 0.0));
  Alcotest.(check (float 1e-9)) "ordinary regions divide" 2.0
    (Runtime.Telemetry.speedup ~baseline:(record 2.0) (record 1.0))

let test_telemetry_hit_rate () =
  let record ?(raw = 0) ?(canonical = 0) ?(waited = 0) hits misses =
    {
      Runtime.Telemetry.jobs = 1;
      tasks = 0;
      wall_s = 0.;
      cpu_s = 0.;
      cache_hits = hits;
      cache_misses = misses;
      cache_raw_hits = raw;
      cache_canonical_hits = canonical;
      cache_waited = waited;
      run_cache_hits = 0;
      run_cache_misses = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "no activity is 0" 0.
    (Runtime.Telemetry.cache_hit_rate (record 0 0));
  Alcotest.(check (float 1e-9)) "3 of 4" 0.75
    (Runtime.Telemetry.cache_hit_rate (record 3 1));
  (* breakdown: raw + canonical = hits; waiters change neither rate, so
     the split cannot double-count them *)
  let t = record ~raw:2 ~canonical:1 ~waited:2 3 1 in
  Alcotest.(check (float 1e-9)) "raw rate over all lookups" 0.5
    (Runtime.Telemetry.raw_hit_rate t);
  Alcotest.(check (float 1e-9)) "canonical rate over all lookups" 0.25
    (Runtime.Telemetry.canonical_hit_rate t);
  Alcotest.(check (float 1e-9)) "waiters do not perturb the breakdown"
    (Runtime.Telemetry.raw_hit_rate t)
    (Runtime.Telemetry.raw_hit_rate { t with cache_waited = 0 })

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves input order" `Quick test_map_preserves_order;
          Alcotest.test_case "tasks run exactly once" `Quick test_tasks_run_exactly_once;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "first input-order exception wins" `Quick
            test_first_exception_in_input_order;
          Alcotest.test_case "batch drains despite exception" `Quick
            test_all_tasks_complete_despite_exception;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "task counter" `Quick test_tasks_counter;
          Alcotest.test_case "AURIX_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "pool reuse across batches" `Quick test_with_pool_reuse;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "spawn/await" `Quick test_spawn_await;
          Alcotest.test_case "await propagates failure" `Quick test_await_failure;
          Alcotest.test_case "promise fulfill is once-only" `Quick
            test_promise_fulfill;
          Alcotest.test_case "nested run_all on workers" `Quick
            test_nested_run_all_on_workers;
          Alcotest.test_case "both nested on workers" `Quick
            test_both_nested_on_workers;
          Alcotest.test_case "steal hammer (skewed costs, 4 domains)" `Quick
            test_steal_hammer;
          Alcotest.test_case "awaiters never steal foreign deques" `Quick
            test_await_never_steals;
          Alcotest.test_case "shared pool" `Quick test_shared_pool;
        ] );
      ( "dag",
        [
          Alcotest.test_case "diamond" `Quick test_dag_basic;
          Alcotest.test_case "failure skips dependents" `Quick
            test_dag_skip_propagation;
          Alcotest.test_case "first failure by node id" `Quick
            test_dag_first_failure_by_node_id;
          Alcotest.test_case "node counter jobs-invariant" `Quick
            test_dag_node_counter_invariant;
          QCheck_alcotest.to_alcotest dag_respects_edges;
        ] );
      ( "solve-cache",
        [
          Alcotest.test_case "hit on identical model" `Quick test_cache_hit_on_identical_model;
          Alcotest.test_case "miss on perturbed model" `Quick test_cache_miss_on_perturbed_model;
          Alcotest.test_case "solver kind and params keyed" `Quick
            test_cache_distinguishes_solvers_and_params;
          Alcotest.test_case "names excluded from key" `Quick test_cache_key_ignores_names;
          Alcotest.test_case "structural twins hit canonically" `Quick
            test_cache_canonical_twin_hits;
          Alcotest.test_case "node-limit outcome replayed" `Quick test_cache_replays_node_limit;
          Alcotest.test_case "plain and audit share node-limit outcomes" `Quick
            test_cache_modes_share_node_limit_outcome;
          Alcotest.test_case "single flight under concurrency" `Quick
            test_cache_single_flight;
        ] );
      ( "run-cache",
        [
          Alcotest.test_case "hit on identical request" `Quick
            test_run_cache_hit_on_identical;
          Alcotest.test_case "key sensitivity" `Quick test_run_cache_key_sensitivity;
          Alcotest.test_case "kernels keyed apart yet agree" `Quick
            test_run_cache_kernels_share_nothing_but_agree;
          Alcotest.test_case "cycle-limit outcome replayed" `Quick
            test_run_cache_replays_cycle_limit;
          Alcotest.test_case "single flight under concurrency" `Quick
            test_run_cache_single_flight;
          Alcotest.test_case "hit/miss totals jobs-invariant" `Quick
            test_run_cache_jobs_invariant;
          Alcotest.test_case "family shares entries with solo runs" `Quick
            test_run_family_matches_solo_and_shares_entries;
          Alcotest.test_case "family outcomes capture cycle limit" `Quick
            test_run_family_outcomes_captures_cycle_limit;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "measure" `Quick test_telemetry_measure;
          Alcotest.test_case "speedup guarded against zero wall" `Quick
            test_telemetry_speedup_guarded;
          Alcotest.test_case "cache hit rate" `Quick test_telemetry_hit_rate;
        ] );
    ]
