(* The metric catalogue.  BENCHMARK.json lists the same names and
   units; the self-test checks that every run emits exactly these. *)

let end_to_end =
  [
    ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("cpu_ms_per_req", "ms");
    ("plan_cost", "cost");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* The race contestants reported per solver: the full default race on
   the race-portfolio instances. *)
let solvers =
  [ "all-task"; "mt-dp"; "mt-beam"; "greedy"; "hill-climb"; "anneal"; "ga"; "ga-polish" ]

(* Solvers whose Solution.stats report work done: "states" for mt-dp,
   "evaluations" for the local searches. *)
let work_rates =
  [
    ("mt-dp", "states", "states_per_s");
    ("ga", "evaluations", "evals_per_s");
    ("anneal", "evaluations", "evals_per_s");
    ("hill-climb", "evaluations", "evals_per_s");
  ]

let per_layer =
  [
    ("protocol.parse_ms", "ms");
    ("protocol.encode_ms", "ms");
    ("protocol.request_kb", "KB");
    ("protocol.response_kb", "KB");
    ("oracle.build_ms", "ms");
    ("oracle.builds_per_req", "count/req");
    ("oracle.dense_mb", "MB");
    ("lru.hit_rate", "ratio");
    ("lru.evictions_per_req", "count/req");
    ("lru.entries", "count");
    ("race.ms", "ms");
    ("race.cpu_ms", "ms");
    ("race.parallel_eff", "ratio");
  ]
  @ List.concat_map
      (fun s -> [ ("solver." ^ s ^ ".ms", "ms"); ("solver." ^ s ^ ".win_share", "ratio") ])
      solvers
  @ List.map (fun (s, _, rate) -> ("solver." ^ s ^ "." ^ rate, "1/s")) work_rates
  @ [
      ("gc.minor_mb_per_req", "MB");
      ("gc.major_per_req", "count/req");
      ("gc.heap_mb", "MB");
      ("self.protocol_ms", "ms");
      ("self.oracle_ms", "ms");
      ("self.race_ms", "ms");
      ("self.solvers_ms", "ms");
      ("self.unattributed_ms", "ms");
      ("share.protocol_pct", "%");
      ("share.oracle_pct", "%");
      ("share.race_pct", "%");
      ("share.solvers_pct", "%");
      ("share.unattributed_pct", "%");
      ("trace.overhead_rps", "1/s");
      ("trace.overhead_pct", "%");
      ("trace.spans_per_req", "count");
    ]
