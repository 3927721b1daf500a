(* The solves Contention.Ilp_ptac.contention_bound makes internally,
   called directly through Runtime.Solve_cache on the same model and
   before it, so that contention_bound's own lookups then hit the cache.
   The probes repeat the cache's work outside it — canonical form, root
   presolve and the search on the canonical model, or in audit mode the
   certified search and the independent check — to split the solve
   span's time between the cache and the solver layers. *)

let var_bounds model =
  let nv = Ilp.Model.num_vars model in
  ( Array.init nv (fun v -> (Ilp.Model.var_info model v).Ilp.Model.lb),
    Array.init nv (fun v -> (Ilp.Model.var_info model v).Ilp.Model.ub) )

(* [twin ~name call probes] calls the cached solve in a span; [probes]
   receives a canonical form computed afresh, as the cache computes one
   per request. *)
let twin ~name call probes model =
  let canon = lazy (Ilp.Canonical.of_model model) in
  let cm () = Ilp.Canonical.model (Lazy.force canon) in
  ignore
    (Span.call_probed ~layer:"solve_cache" ~name ~did_work:(Span.missed "solve_cache") call
       ~probes:(("ilp", "canonical", fun _ -> ignore (Lazy.force canon)) :: probes cm))

let certified ?slack solve cm =
  let answer = ref None in
  [
    ("audit", "solve_certified", fun _ ->
        answer :=
          (try Some (solve (cm ())) with Ilp.Branch_bound.Node_limit_exceeded -> None));
    ("audit", "audit.check", fun _ ->
        match !answer with
        | Some (s, Some cert) -> ignore (Audit.Checker.check ?slack (cm ()) s cert)
        | Some (_, None) | None -> ());
  ]

let solves ~audit ~node_limit ~slack model =
  twin ~name:"solve_lp"
    (fun () -> ignore (Runtime.Solve_cache.solve_lp model))
    (if audit then
       certified (fun m ->
           let s, c = Ilp.Simplex.solve_certified m in
           (s, Option.map (fun c -> Ilp.Cert.Lp c) c))
     else fun cm -> [ ("ilp", "simplex", fun _ -> ignore (Ilp.Simplex.solve (cm ()))) ])
    model;
  twin ~name:"solve_ilp"
    (fun () ->
       try ignore (Runtime.Solve_cache.solve_ilp ~node_limit ~slack model)
       with Ilp.Branch_bound.Node_limit_exceeded -> ())
    (if audit then certified ~slack (Ilp.Branch_bound.solve_certified ~node_limit ~slack)
     else fun cm ->
       let root = ref None in
       [
         ("ilp", "presolve", fun _ ->
             let lb, ub = var_bounds (cm ()) in
             root := Some (Ilp.Presolve.tighten (cm ()) ~lb ~ub));
         ("ilp", "branch_bound", fun _ ->
             try ignore (Ilp.Branch_bound.solve ~node_limit ~slack ?root:!root (cm ()))
             with Ilp.Branch_bound.Node_limit_exceeded -> ());
       ])
    model
