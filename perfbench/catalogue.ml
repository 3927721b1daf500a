(* The metrics the benchmark reports, as declared in BENCHMARK.json.
   End-to-end metrics are measured with tracing off, and each has one
   meaning per workload: README.md's table defines [pass_ref_s],
   [op_p50_ref_ms] and [op_tail_ref_ms] for each. Their times are
   scaled to a reference host speed ({!Speed}); [setup_s] is not.
   The tail is the highest percentile with at least ten samples beyond
   it. Per-layer metrics come from the separate traced run. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
    m "pass_ref_s" "s" Lower;
    m "op_p50_ref_ms" "ms" Lower;
    m "op_tail_ref_ms" "ms" Lower;
  ]

(* Every layer's summed self time, so that they and
   runtime.unattributed_s add up to trace.wall_s. *)
let layers =
  [ "tcsim"; "mbta"; "contention"; "ilp"; "solve_cache"; "audit"; "analysis"; "serve" ]

let per_layer =
  List.map (fun l -> m (l ^ ".self_s") "s" Lower) (List.tl layers)
  @ [
    m "tcsim.calls" "count" Lower;
    m "tcsim.self_s" "s" Lower;
    m "tcsim.events" "count" Lower;
    m "tcsim.cycles" "count" Lower;
    m "tcsim.ns_per_event" "ns" Lower;
    m "tcsim.minor_words_per_event" "words" Lower;
    m "tcsim.mcycles_per_s" "Mcycles/s" Higher;
    m "run_cache.hits" "count" Higher;
    m "run_cache.misses" "count" Lower;
    m "run_cache.hit_us" "us" Lower;
    m "contention.build_model_us" "us" Lower;
    m "contention.bound_self_us" "us" Lower;
    m "ilp.solves" "count" Lower;
    m "ilp.nodes" "count" Lower;
    m "ilp.nodes_per_solve" "count" Lower;
    m "ilp.us_per_node" "us" Lower;
    m "ilp.pivots_per_node" "count" Lower;
    m "ilp.node_limit_hits" "count" Lower;
    m "ilp.engine_restarts" "count" Lower;
    m "ilp.dense_fallbacks" "count" Lower;
    m "ilp.canonical_us" "us" Lower;
    m "ilp.presolve_us" "us" Lower;
    m "ilp.exact_rate" "ratio" Higher;
    m "solve_cache.hits" "count" Higher;
    m "solve_cache.misses" "count" Lower;
    m "solve_cache.canonical_hits" "count" Higher;
    m "audit.verified" "count" Higher;
    m "audit.failed" "count" Lower;
    m "audit.skipped" "count" Lower;
    m "audit.check_us" "us" Lower;
    m "audit.certified_solve_us" "us" Lower;
    m "analysis.lint_calls" "count" Lower;
    m "analysis.lint_us" "us" Lower;
    m "runtime.tasks" "count" Lower;
    m "runtime.steals" "count" Lower;
    m "runtime.dag.nodes" "count" Lower;
    m "runtime.unattributed_s" "s" Lower;
    m "serve.digest_us" "us" Lower;
    m "serve.engine_hit_us" "us" Lower;
    m "serve.transport_us" "us" Lower;
    m "serve.codec_us" "us" Lower;
    m "serve.disk_load_us" "us" Lower;
    m "serve.query.computed" "count" Lower;
    m "serve.query.memory_hits" "count" Higher;
    m "serve.query.disk_hits" "count" Higher;
    m "serve.rejects" "count" Lower;
    m "trace.wall_s" "s" Lower;
    m "trace.overhead_ratio" "ratio" Lower;
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let find name =
  List.find (fun m -> m.name = name) (end_to_end @ per_layer)
