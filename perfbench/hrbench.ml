(* hrbench — the in-process benchmark of the solve request path.

   One client thread sends requests in a closed loop, one at a time and
   with no think time.  Each request makes the calls [hrserve --stdio]
   makes: [Protocol.parse_line], then [Batch.run ~pool ~cache [req]] on
   one [Pool.create ~workers:1 ()] and one long-lived
   [Batch.build_cache], then [Protocol.response_line].  There are no
   sockets, sleeps or deadlines: every budget is unlimited, so every
   plan is deterministic.

     hrbench --workload W --seed N --seconds S --trace 0|1
     hrbench --self-test [--benchmark-json FILE]

   See README.md in this directory for the metrics and workloads. *)

open Hr_core
module Case = Hr_check.Case
module Protocol = Hr_serve.Protocol
module Pool = Hr_util.Pool

(* ------------------------------------------------------------------ *)
(* Serving one request.                                                *)

(* Recorded by the build-thunk wrapper, once per oracle build. *)
type builds = {
  mu : Mutex.t;
  mutable count : int;
  mutable dense_bytes : int;
  rung : (string, string) Hashtbl.t;  (** request key -> oracle cache kind *)
}

type server = {
  pool : Pool.t;
  cache : Batch.build_cache;
  solvers : Problem.t -> Solver.t list;
  builds : builds;
}

(* What a run keeps of one served request until the gate: little, so
   that holding every request does not make the process's peak memory
   grow with the number of requests a run completes. *)
type contestant = { solver : string; exact_kind : bool; stats : (string * string) list }

type served = {
  line : string;  (** the encoded response line *)
  key : string option;  (** the request's LRU key *)
  built : bool;  (** did the request build its oracle (an LRU miss)? *)
  winner : (string * int) option;  (** winning solver and cost; [None] on error *)
  contestants : contestant list;
}

let summarize (r : Batch.response) line key ~built =
  match r.Batch.outcome with
  | Error _ -> { line; key; built; winner = None; contestants = [] }
  | Ok sv ->
      let sol = sv.Batch.solution in
      let contestant (rp : Solver.report) =
        {
          solver = rp.Solver.solver;
          exact_kind = rp.Solver.kind = Solver.Exact;
          stats = (match rp.Solver.solution with Some s -> s.Solution.stats | None -> []);
        }
      in
      {
        line;
        key;
        built;
        winner = Some (sol.Solution.solver, sol.Solution.cost);
        contestants = List.map contestant sv.Batch.reports;
      }

(* One batch worker, as [hrserve --stdio --workers 1] runs: with one
   request in flight a batch is one chunk, so a second worker could only
   idle, and an idle domain still joins every stop-the-world minor
   collection of the race. *)
let new_server (w : Workload.t) =
  {
    pool = Pool.create ~workers:1 ();
    cache = Batch.build_cache ~max_bytes:w.Workload.lru_bytes ();
    solvers = w.Workload.solvers;
    builds = { mu = Mutex.create (); count = 0; dense_bytes = 0; rung = Hashtbl.create 64 };
  }

(* Both pools a request touches: the batch pool and the shared one the
   race and large table builds run on. *)
let stop_server s =
  Pool.shutdown s.pool;
  Pool.shutdown (Pool.default ())

let counted b (req : Batch.request) =
  let build () =
    let problem = req.Batch.build () in
    let stats = Interval_cost.cache_stats problem.Problem.oracle in
    Mutex.lock b.mu;
    b.count <- b.count + 1;
    if stats.Interval_cost.kind = "dense" then
      b.dense_bytes <- b.dense_bytes + stats.Interval_cost.bytes_resident;
    Option.iter (fun k -> Hashtbl.replace b.rung k stats.Interval_cost.kind) req.Batch.key;
    Mutex.unlock b.mu;
    problem
  in
  { req with Batch.build }

let only (batch : Batch.t) =
  match batch.Batch.responses with [ r ] -> r | _ -> invalid_arg "expected one response"

(* Process CPU spent inside traced races and inside their builds. *)
type race_cpu = { mutable race_s : float; mutable build_s : float }

(* A traced request records its calls as spans of request [req]. *)
type tracer = { spans : Spans.t; req : int; cpu : race_cpu }

(* Serves one request line with the calls [hrserve --stdio] makes, and
   returns the response, its encoded line and the request's LRU key.
   With a [tracer], each call runs inside a span, and the contestants
   are re-made under their own names — so their RNG streams and plans
   are unchanged — to run inside spans too. *)
let respond ?tracer s ~id line =
  let span ~parent name f =
    match tracer with
    | None -> f parent
    | Some t -> Spans.with_span t.spans ~req:t.req ~parent name f
  in
  let cpu_into add f =
    match tracer with
    | None -> f ()
    | Some t ->
        let c0 = Clock.cpu_s () in
        let r = f () in
        add t.cpu (Clock.cpu_s () -. c0);
        r
  in
  let traced_solver ~parent (t : Solver.t) =
    Solver.make ~name:t.Solver.name ~kind:t.Solver.kind ~doc:t.Solver.doc
      ~handles:t.Solver.handles (fun ~budget ~rng p ->
        span ~parent ("solver." ^ t.Solver.name) (fun _ -> t.Solver.run ~budget ~rng p))
  in
  span ~parent:(-1) "request" (fun root ->
      let parsed =
        span ~parent:root "protocol.parse" (fun _ -> Protocol.parse_line ~fallback_id:id line)
      in
      let response, key =
        match parsed with
        | Protocol.Malformed { id; error } -> (Batch.error_response ~id error, None)
        | Protocol.Request req ->
            let race parent =
              let build, solvers =
                match tracer with
                | None -> (req.Batch.build, s.solvers)
                | Some _ ->
                    ( (fun () ->
                        span ~parent "oracle.build" (fun _ ->
                            cpu_into (fun c d -> c.build_s <- c.build_s +. d) req.Batch.build)),
                      fun p -> List.map (traced_solver ~parent) (s.solvers p) )
              in
              only
                (Batch.run ~pool:s.pool ~cache:s.cache ~solvers
                   [ counted s.builds { req with Batch.build } ])
            in
            ( cpu_into (fun c d -> c.race_s <- c.race_s +. d) (fun () ->
                  span ~parent:root "race" race),
              req.Batch.key )
      in
      let out = span ~parent:root "protocol.encode" (fun _ -> Protocol.response_line response) in
      (response, out, key))

let serve ?tracer s ~id line =
  let builds = s.builds.count in
  let response, out, key = respond ?tracer s ~id line in
  summarize response out key ~built:(s.builds.count > builds)

(* One set-up, timed from pool start through the warm-up requests to
   the moment the first timed request may start. *)
let set_up (w : Workload.t) =
  let t0 = Clock.now () in
  let s = new_server w in
  let warm =
    Array.map (fun c -> serve s ~id:(string_of_int c) w.Workload.lines.(c)) w.Workload.warm
  in
  (s, warm, Clock.s_between t0 (Clock.now ()))

(* ------------------------------------------------------------------ *)
(* Small helpers.                                                      *)

let div a b = if b = 0. then 0. else a /. b
let fsum f n = let acc = ref 0. in for i = 0 to n - 1 do acc := !acc +. f i done; !acc
let count p n = let c = ref 0 in for i = 0 to n - 1 do if p i then incr c done; !c

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float kb /. 1024.

(* Throughput in each tenth of the timed phase, from the per-request
   latencies (the closed loop has no gaps between requests): shows drift
   within a run. *)
let window_rps lat =
  let total = Array.fold_left ( +. ) 0. lat in
  let edges = Array.init 10 (fun w -> total *. float (w + 1) /. 10.) in
  let counts = Array.make 10 0 and t = ref 0. in
  Array.iter
    (fun l ->
      t := !t +. l;
      let w = ref 0 in
      while !w < 9 && !t > edges.(!w) do incr w done;
      counts.(!w) <- counts.(!w) + 1)
    lat;
  Array.to_list (Array.map (fun c -> float c /. (total /. 10000.)) counts)

let stat_int stats key =
  match List.assoc_opt key stats with
  | Some v -> ( try float (int_of_string v) with Failure _ -> 0.)
  | None -> 0.

(* ------------------------------------------------------------------ *)
(* One run.                                                            *)

type report = {
  metrics : (string * float * string) list;  (** in catalogue order *)
  attempted : int;
  failed : int;
  notes : string list;  (** printed before the result line *)
}

(* The gate, after the timed phase: every response of a case is checked
   against that case's reference problem, and all of them must be
   byte-identical once their timing fields are zeroed (a hit answers
   exactly as the first miss did).  Returns the failing (index, reason)
   pairs. *)
let gate (w : Workload.t) (checked : (int * served) array) =
  let by_case = Hashtbl.create 64 in
  for idx = Array.length checked - 1 downto 0 do
    let c = fst checked.(idx) in
    Hashtbl.replace by_case c (idx :: Option.value (Hashtbl.find_opt by_case c) ~default:[])
  done;
  let failures = ref [] in
  let fail idx e = failures := (idx, e) :: !failures in
  Hashtbl.iter
    (fun c idxs ->
      match Case.of_string w.Workload.lines.(c) with
      | Error e -> List.iter (fun idx -> fail idx ("case does not parse: " ^ e)) idxs
      | Ok case ->
          let reference = Cases.reference_problem case in
          let first = ref None in
          List.iter
            (fun idx ->
              let r = snd checked.(idx) in
              match Gate.check ~reference r.line with
              | Error e -> fail idx e
              | Ok _ -> (
                  let quiet = Gate.untimed r.line in
                  match !first with
                  | None -> first := Some quiet
                  | Some f when String.equal f quiet -> ()
                  | Some _ -> fail idx "differs from the first response to the same case"))
            idxs)
    by_case;
  List.sort compare !failures

(* The minor heap every domain of a measuring run must have, in words:
   8 MB, set through OCAMLRUNPARAM by run.sh, because a domain's minor
   heap is sized when the domain starts ([Gc.set] reaches only the
   calling domain).  The runtime's default of 256 k words makes a race
   request run some 270 stop-the-world minor collections, each waiting
   for every domain of the process, idle ones included, to be scheduled;
   on a 2-vCPU VM wall time then follows the hypervisor more than the
   program (README.md). *)
let minor_heap_words = 1_048_576

let run ~scale ~workload ~seed ~seconds ~trace =
  let full = scale = Workload.Full in
  let min_samples = if full then 100 else 2 in
  let setups = if full then 3 else 1 in
  let g0 = Clock.now () in
  let w = Workload.make ~scale ~seed workload in
  let generate_s = Clock.s_between g0 (Clock.now ()) and hwm_generate = peak_rss_mb () in
  (* Set up [setups] times, keeping the last. *)
  let rec set_ups i times =
    let s, warm, t = set_up w in
    if i + 1 < setups then begin
      stop_server s;
      set_ups (i + 1) (t :: times)
    end
    else (s, warm, List.rev (t :: times))
  in
  let s, warm, setup_times = set_ups 0 [] in
  let hwm_set_up = peak_rss_mb () in
  Gc.compact ();
  let case_of i = w.Workload.stream.(i mod Array.length w.Workload.stream) in
  let latency = ref [] and results = ref [] in
  let spans = Spans.create () and cpu = { race_s = 0.; build_s = 0. } in
  let traced i = trace && i mod 2 = 0 in
  let lru0 = Batch.build_cache_stats s.cache in
  let builds0 = s.builds.count and dense0 = s.builds.dense_bytes in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Clock.cpu_s () in
  let start = Clock.now () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let k = ref 0 in
  while !k < min_samples || Int64.compare (Clock.now ()) deadline < 0 do
    let i = !k in
    let c = case_of i in
    let id = string_of_int c and line = w.Workload.lines.(c) in
    let t0 = Clock.now () in
    let tracer = if traced i then Some { spans; req = i; cpu } else None in
    let r = serve ?tracer s ~id line in
    latency := Clock.ms_between t0 (Clock.now ()) :: !latency;
    results := r :: !results;
    incr k
  done;
  let stop = Clock.now () in
  let cpu1 = Clock.cpu_s () in
  let gc1 = Gc.quick_stat () in
  let lru1 = Batch.build_cache_stats s.cache in
  let hwm = peak_rss_mb () in
  let builds = s.builds.count - builds0 and dense_bytes = s.builds.dense_bytes - dense0 in
  let n = !k in
  let timed = Array.of_list (List.rev !results) and lat = Array.of_list (List.rev !latency) in
  let fn = float n in
  (* Correctness gate, outside the timed region. *)
  let checked =
    Array.append
      (Array.mapi (fun j r -> (w.Workload.warm.(j), r)) warm)
      (Array.mapi (fun i r -> (case_of i, r)) timed)
  in
  let failures = gate w checked in
  List.iteri
    (fun j (idx, e) ->
      if j < 10 then
        Printf.eprintf "hrbench: gate: request %d (case %d): %s\n" idx (fst checked.(idx)) e)
    failures;
  let failed = List.length (List.sort_uniq compare (List.map fst failures)) in
  (* End-to-end metrics. *)
  let elapsed_s = Clock.s_between start stop in
  let cost i = match timed.(i).winner with Some (_, c) -> c | None -> 0 in
  let plan_cost = fsum (fun i -> float (cost i)) (min n min_samples) in
  let end_to_end =
    [
      ("throughput_rps", fn /. elapsed_s);
      ("latency_p50_ms", Hr_util.Stats.percentile lat 50.);
      ("latency_p90_ms", Hr_util.Stats.percentile lat 90.);
      ("cpu_ms_per_req", (cpu1 -. cpu0) *. 1000. /. fn);
      ("plan_cost", plan_cost);
      ("peak_rss_mb", hwm);
      ("setup_s", Hr_util.Stats.percentile (Array.of_list setup_times) 50.);
    ]
  in
  (* Properties of the inputs, for citing a change's reach. *)
  let seen = Hashtbl.create 64 in
  Array.iter (fun c -> Hashtbl.replace seen c ()) w.Workload.warm;
  let repeats =
    count
      (fun i ->
        let c = case_of i in
        let r = Hashtbl.mem seen c in
        Hashtbl.replace seen c ();
        r)
      n
  in
  let hits = lru1.Batch.hits - lru0.Batch.hits and misses = lru1.Batch.misses - lru0.Batch.misses in
  let rung i = Option.bind timed.(i).key (Hashtbl.find_opt s.builds.rung) in
  let exact_entered i = List.exists (fun c -> c.exact_kind) timed.(i).contestants in
  let request_bytes = fsum (fun i -> float (String.length w.Workload.lines.(case_of i))) n /. fn in
  let response_bytes = fsum (fun i -> float (String.length timed.(i).line)) n /. fn in
  let properties =
    Printf.sprintf
      "{\"repeat_share\": %.4f, \"lru_hit_share\": %.4f, \"dense_share\": %.4f, \
       \"sparse_share\": %.4f, \"exact_engine_share\": %.4f, \"request_bytes\": %.0f, \
       \"response_bytes\": %.0f}"
      (div (float repeats) fn)
      (div (float hits) (float (hits + misses)))
      (div (float (count (fun i -> rung i = Some "dense") n)) fn)
      (div (float (count (fun i -> rung i = Some "sparse") n)) fn)
      (div (float (count exact_entered n)) fn)
      request_bytes response_bytes
  in
  (* Per-layer metrics, from the traced requests' spans. *)
  let per_layer () =
    let by_req = Hashtbl.create 256 in
    List.iter
      (fun sp ->
        Hashtbl.replace by_req sp.Spans.req
          (sp :: Option.value (Hashtbl.find_opt by_req sp.Spans.req) ~default:[]))
      (Spans.all spans);
    let traced_idx = List.filter traced (List.init n Fun.id) in
    let nt = float (List.length traced_idx) in
    let sum f = List.fold_left (fun acc i -> acc +. f i) 0. traced_idx in
    let spans_of i = Option.value (Hashtbl.find_opt by_req i) ~default:[] in
    let named name i = List.filter (fun sp -> sp.Spans.name = name) (spans_of i) in
    let dur name i = List.fold_left (fun acc sp -> acc +. Spans.duration_ms sp) 0. (named name i) in
    let is_solver sp = String.starts_with ~prefix:"solver." sp.Spans.name in
    let solver_spans i = List.filter is_solver (spans_of i) in
    let build_spans i = named "oracle.build" i in
    let solvers_cov i = Spans.covered_ms (solver_spans i) in
    let race_self i = dur "race" i -. Spans.covered_ms (build_spans i @ solver_spans i) in
    let protocol i = dur "protocol.parse" i +. dur "protocol.encode" i in
    let unattributed i =
      dur "request" i -. dur "protocol.parse" i -. dur "race" i -. dur "protocol.encode" i
    in
    let req_ms = sum (dur "request") in
    let traced_builds = sum (fun i -> float (List.length (build_spans i))) in
    let race_ms = sum (fun i -> dur "race" i -. dur "oracle.build" i) in
    let contestant_ms =
      sum (fun i -> List.fold_left (fun a sp -> a +. Spans.duration_ms sp) 0. (solver_spans i))
    in
    let per_solver name =
      let span = "solver." ^ name in
      let ran = sum (fun i -> float (List.length (named span i))) in
      let entered =
        count (fun i -> List.exists (fun c -> c.solver = name) timed.(i).contestants) n
      in
      let wins =
        count (fun i -> match timed.(i).winner with Some (w, _) -> w = name | None -> false) n
      in
      [
        (span ^ ".ms", div (sum (dur span)) ran);
        (span ^ ".win_share", div (float wins) (float entered));
      ]
    in
    let work_rate (name, key, rate) =
      let work =
        sum (fun i ->
            List.fold_left
              (fun acc c -> if c.solver = name then acc +. stat_int c.stats key else acc)
              0. timed.(i).contestants)
      in
      ("solver." ^ name ^ "." ^ rate, div work (sum (dur ("solver." ^ name)) /. 1000.))
    in
    (* Tracing overhead, stratified by whether the request built its
       oracle, so that a different hit/miss mix among the traced and the
       untraced requests does not pass for overhead. *)
    let rps ~traced_side =
      let mean_ms built =
        let idx =
          List.filter
            (fun i -> traced i = traced_side && timed.(i).built = built)
            (List.init n Fun.id)
        in
        div (List.fold_left (fun a i -> a +. lat.(i)) 0. idx) (float (List.length idx))
      in
      let misses = float (count (fun i -> timed.(i).built) n) in
      div 1000. ((misses *. mean_ms true) +. ((fn -. misses) *. mean_ms false)) *. fn
    in
    let traced_rps = rps ~traced_side:true and untraced_rps = rps ~traced_side:false in
    let word_mb = float (Sys.word_size / 8) /. 1e6 in
    let share x = 100. *. div x req_ms in
    [
      ("protocol.parse_ms", div (sum (dur "protocol.parse")) nt);
      ("protocol.encode_ms", div (sum (dur "protocol.encode")) nt);
      ("protocol.request_kb", request_bytes /. 1024.);
      ("protocol.response_kb", response_bytes /. 1024.);
      ("oracle.build_ms", div (sum (dur "oracle.build")) traced_builds);
      ("oracle.builds_per_req", float builds /. fn);
      ("oracle.dense_mb", div (float dense_bytes /. 1e6) (float builds));
      ("lru.hit_rate", div (float hits) (float (hits + misses)));
      ("lru.evictions_per_req", float (lru1.Batch.evictions - lru0.Batch.evictions) /. fn);
      ("lru.entries", float lru1.Batch.entries);
      ("race.ms", div race_ms nt);
      ("race.cpu_ms", div ((cpu.race_s -. cpu.build_s) *. 1000.) nt);
      ("race.parallel_eff", div contestant_ms (race_ms *. float (Hr_util.Par.num_domains ())));
    ]
    @ List.concat_map per_solver Metrics.solvers
    @ List.map work_rate Metrics.work_rates
    @ [
        ("gc.minor_mb_per_req", (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. word_mb /. fn);
        ("gc.major_per_req", float (gc1.Gc.major_collections - gc0.Gc.major_collections) /. fn);
        ("gc.heap_mb", float gc1.Gc.heap_words *. word_mb);
        ("self.protocol_ms", div (sum protocol) nt);
        ("self.oracle_ms", div (sum (dur "oracle.build")) nt);
        ("self.race_ms", div (sum race_self) nt);
        ("self.solvers_ms", div (sum solvers_cov) nt);
        ("self.unattributed_ms", div (sum unattributed) nt);
        ("share.protocol_pct", share (sum protocol));
        ("share.oracle_pct", share (sum (dur "oracle.build")));
        ("share.race_pct", share (sum race_self));
        ("share.solvers_pct", share (sum solvers_cov));
        ("share.unattributed_pct", share (sum unattributed));
        ("trace.overhead_rps", traced_rps -. untraced_rps);
        ("trace.overhead_pct", 100. *. div (untraced_rps -. traced_rps) untraced_rps);
        ("trace.spans_per_req", div (float (List.length (Spans.all spans))) nt);
      ]
  in
  let values, catalogue =
    if trace then (per_layer (), Metrics.per_layer) else (end_to_end, Metrics.end_to_end)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v -> (name, (if Float.is_finite v then v else 0.), unit)
        | None -> invalid_arg ("hrbench: metric not computed: " ^ name))
      catalogue
  in
  if trace && full then begin
    let dir = "perfbench/out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Spans.write spans (Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed))
  end;
  stop_server s;
  let notes =
    [
      Printf.sprintf
        "hrbench: workload=%s seed=%d seconds=%g trace=%d domains=%d minor_heap_words=%d"
        workload seed seconds (Bool.to_int trace) (Hr_util.Par.num_domains ())
        (Gc.get ()).Gc.minor_heap_size;
      Printf.sprintf
        "samples: timed=%d traced=%d warm-up=%d set-ups=%d elapsed_s=%.3f plan_cost_over=%d \
         generate_s=%.3f"
        n (count traced n) (Array.length warm) setups elapsed_s (min n min_samples) generate_s;
      Printf.sprintf "set-up_s: %s"
        (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
      Printf.sprintf "peak_rss_mb after: generation %.1f, set-up %.1f, timed phase %.1f"
        hwm_generate hwm_set_up hwm;
      Printf.sprintf "requests per second, by tenth of the timed phase: %s"
        (String.concat " " (List.map (Printf.sprintf "%.2f") (window_rps lat)));
      Printf.sprintf "latency by class (ms): %s"
        (String.concat ", "
           (List.filter_map
              (fun (label, p) ->
                let l = List.filter_map (fun i -> if p i then Some lat.(i) else None) (List.init n Fun.id) in
                if l = [] then None
                else
                  let a = Array.of_list l in
                  Some
                    (Printf.sprintf "%s n=%d p50 %.1f p90 %.1f" label (Array.length a)
                       (Hr_util.Stats.percentile a 50.) (Hr_util.Stats.percentile a 90.)))
              [
                ("m=2", fun i -> w.Workload.tasks.(case_of i) = 2);
                ("m=3", fun i -> w.Workload.tasks.(case_of i) = 3);
                ("built", fun i -> timed.(i).built);
                ("reused", fun i -> not timed.(i).built);
              ]));
      Printf.sprintf "stream: %d distinct cases, %d requests long, passes %.2f"
        (Array.length w.Workload.lines) (Array.length w.Workload.stream)
        (fn /. float (Array.length w.Workload.stream));
    ]
    @ List.map
        (fun (name, v) ->
          Printf.sprintf "%-24s %.4f %s" name v (List.assoc name Metrics.end_to_end))
        (if trace then end_to_end else [])
    @ List.map (fun (name, v, unit) -> Printf.sprintf "%-24s %.4f %s" name v unit) metrics
    @ [
        Printf.sprintf "requests: attempted=%d failed=%d" (Array.length checked) failed;
        "properties: " ^ properties;
      ]
  in
  { metrics; attempted = Array.length checked; failed; notes }

let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          r.metrics))

(* ------------------------------------------------------------------ *)
(* Self-test, at tiny sizes.                                           *)

let self_test ~benchmark_json =
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        ok := false;
        prerr_endline ("hrbench self-test: FAIL: " ^ msg))
      fmt
  in
  (* The gate accepts a served line and rejects it with one breakpoint
     flipped or with a wrong reported cost. *)
  let case = Cases.multi ~seed:7 ~m:2 ~n:12 ~local:8 () in
  let s = new_server (Workload.make ~scale:Workload.Tiny ~seed:0 "race-portfolio") in
  let response, line, _ = respond s ~id:"0" (Case.to_string case) in
  stop_server s;
  if Gate.untimed line <> Protocol.response_line ~timing:false response then
    fail "zeroing a line's timing fields differs from response_line ~timing:false";
  let reference = Cases.reference_problem case in
  (match Gate.check ~reference line with
  | Ok _ -> ()
  | Error e -> fail "the gate rejects a served line: %s" e);
  (match Gate.check ~reference (Gate.flip_breakpoint line) with
  | Error _ -> ()
  | Ok _ -> fail "the gate accepts a plan with a flipped breakpoint");
  (match Gate.check ~reference (Gate.bump_cost line) with
  | Error _ -> ()
  | Ok _ -> fail "the gate accepts a wrong reported cost");
  (* Every workload emits every metric with its unit, in both modes. *)
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r =
            run ~scale:Workload.Tiny ~workload ~seed:1 ~seconds:0. ~trace
          in
          let expected = if trace then Metrics.per_layer else Metrics.end_to_end in
          if List.map (fun (n, _, u) -> (n, u)) r.metrics <> expected then
            fail "%s trace=%b: emitted metrics differ from the catalogue" workload trace;
          if r.failed > 0 then fail "%s trace=%b: %d gate failures" workload trace r.failed)
        [ false; true ])
    Workload.names;
  (* BENCHMARK.json declares the same workloads, names and units. *)
  (match In_channel.with_open_bin benchmark_json In_channel.input_all with
  | exception Sys_error e -> fail "%s" e
  | text -> (
      match Telemetry.json_of_string text with
      | Error e -> fail "%s: %s" benchmark_json e
      | Ok doc ->
          let list key =
            match Gate.field key doc with Some (Telemetry.List l) -> l | _ -> []
          in
          let str key o = match Gate.field key o with Some (Telemetry.String s) -> s | _ -> "" in
          let declared key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
          if List.map (str "name") (list "workloads") <> Workload.names then
            fail "%s: workloads differ from %s" benchmark_json (String.concat ", " Workload.names);
          if declared "end_to_end" <> Metrics.end_to_end then
            fail "%s: end_to_end differs from the catalogue" benchmark_json;
          if declared "per_layer" <> Metrics.per_layer then
            fail "%s: per_layer differs from the catalogue" benchmark_json));
  if !ok then print_endline "hrbench self-test: ok";
  !ok

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self = ref false and benchmark_json = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  " ^ String.concat " | " Workload.names);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self, " check the harness at tiny sizes, then exit");
      ( "--benchmark-json",
        Arg.Set_string benchmark_json,
        "FILE  (self-test) the file to check against the catalogue (default BENCHMARK.json)" );
    ]
  in
  let usage = "hrbench --workload W --seed N --seconds S --trace 0|1 | --self-test" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then exit (if self_test ~benchmark_json:!benchmark_json then 0 else 1);
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("hrbench: --workload must be one of " ^ String.concat ", " Workload.names);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "hrbench: --trace must be 0 or 1";
    exit 2
  end;
  if (Gc.get ()).Gc.minor_heap_size <> minor_heap_words then begin
    Printf.eprintf "hrbench: measure with OCAMLRUNPARAM=s=%d (run.sh sets it)\n"
      minor_heap_words;
    exit 2
  end;
  let r =
    run ~scale:Workload.Full ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  in
  List.iter print_endline r.notes;
  print_endline (result_line r);
  exit (if r.failed = 0 then 0 else 1)
