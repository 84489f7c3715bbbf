(* Serving-throughput benchmark: the persistent-pool batch path
   (Batch.run) against the obvious alternative — spawning one fresh
   domain per solve, the pre-pool behaviour of the racing layer.

   `dune exec bench/serve_bench.exe -- [--instances N] [--seed S]
   [--out FILE]` solves N tiny synthetic instances (m=2, n=6, width 4 —
   small enough that per-call domain spawn/join overhead dominates,
   which is exactly the serving regime hrserve cares about) both ways
   and writes a hyperreconf.bench/1 JSON summary (default
   BENCH_serve.json).  Exits non-zero if any batched solve errored.

   A second track measures the persistent table cache on the serving
   path: the same batch of mid-sized switch cases solved cold (dense
   tables built and stored) and then warm (tables mmap-loaded, the
   oracle construction skipped entirely); the warm plans must be
   byte-identical to the cold ones.

   A third track drives a real in-process socket server (lib/serve)
   under sustained load.  Each of 5 pairs starts a fresh server and
   times a cold pass over distinct cases (every oracle built, LRU
   misses), then a warm pass over the same cases (all LRU hits); the
   median of the pairs' warm/cold throughput ratios must be at least
   5x, and every pair's ratio is recorded.  The last pair's server then
   serves a repeat-heavy concurrent trace from several client
   connections.  Per-request latency percentiles and the LRU hit-rate
   come from that server's own hyperreconf.serve/1 summary. *)

module Budget = Hr_util.Budget
module Pool = Hr_util.Pool
module Rng = Hr_util.Rng
module W = Hr_workload
module Check = Hr_check
open Hr_core

let gen_problems ~count ~seed =
  Array.init count (fun i ->
      let spec =
        {
          W.Multi_gen.default_spec with
          W.Multi_gen.m = 2;
          n = 6;
          local_sizes = [| 4; 4 |];
        }
      in
      let ts = W.Multi_gen.independent (Rng.create (seed + i)) spec in
      Problem.make (Interval_cost.of_task_set ts))

(* One fresh domain per request, joined immediately — what serving a
   stream without a pool looks like. *)
let baseline_ms ~seed solver problems =
  let t0 = Budget.now_ms () in
  Array.iter
    (fun p ->
      ignore (Domain.join (Domain.spawn (fun () -> Solver.solve ~seed solver p))))
    problems;
  Budget.now_ms () -. t0

let pooled ~seed solver problems =
  let pool = Pool.create () in
  let requests =
    Array.to_list
      (Array.mapi
         (fun i p -> Batch.request ~id:(string_of_int i) (fun () -> p))
         problems)
  in
  let t0 = Budget.now_ms () in
  let batch = Batch.run ~pool ~seed ~solvers:(fun _ -> [ solver ]) requests in
  let ms = Budget.now_ms () -. t0 in
  Pool.shutdown pool;
  (batch, ms)

(* Mid-sized switch cases for the table-cache track: big enough that
   the O(m·n²) build dominates a solve, small enough that the batch
   stays sub-second. *)
let gen_cases ?(n = 48) ?(local = 8) ?density ~count ~seed () =
  List.init count (fun i ->
      let spec =
        {
          W.Multi_gen.default_spec with
          W.Multi_gen.m = 2;
          n;
          local_sizes = [| local; local |];
        }
      in
      let spec =
        match density with
        | Some d -> { spec with W.Multi_gen.density = d }
        | None -> spec
      in
      let ts = W.Multi_gen.independent (Rng.create (seed + 1000 + i)) spec in
      let m = Task_set.num_tasks ts in
      let widths =
        Array.init m (fun j ->
            Switch_space.size (Trace.space (Task_set.get ts j).Task_set.trace))
      in
      let vs = Array.init m (fun j -> (Task_set.get ts j).Task_set.v) in
      let reqs =
        Array.init m (fun j ->
            Array.to_list
              (Array.map Hr_util.Bitset.to_list
                 (Trace.reqs (Task_set.get ts j).Task_set.trace)))
      in
      {
        Check.Case.spec = Check.Case.Switch { widths; vs; reqs };
        params = Sync_cost.default_params;
        mode = Mixed_sync.Fully_synchronized;
        machine_class = Problem.Partial;
        place = None;
      })

let cached_batch ~seed ~cache_dir solver cases =
  let pool = Pool.create () in
  let requests =
    List.mapi
      (fun i case ->
        Batch.request ~id:(string_of_int i)
          ~key:(Digest.to_hex (Digest.string (Check.Case.to_string case)))
          (fun () -> Check.Case.problem ~cache_dir case))
      cases
  in
  let t0 = Budget.now_ms () in
  let batch = Batch.run ~pool ~seed ~solvers:(fun _ -> [ solver ]) requests in
  let ms = Budget.now_ms () -. t0 in
  Pool.shutdown pool;
  (batch, ms)

let plans batch =
  List.map
    (fun (r : Batch.response) ->
      match r.Batch.outcome with
      | Ok s -> Some s.Batch.solution
      | Error _ -> None)
    batch.Batch.responses

(* --- sustained-load socket track ----------------------------------- *)

module Server = Hr_serve.Server

(* Send every line, half-close, read one response line per request. *)
let roundtrip path lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let responses = List.map (fun _ -> input_line ic) lines in
  (try close_in ic with Sys_error _ -> ());
  responses

let field name = function
  | Telemetry.Obj fields -> List.assoc_opt name fields
  | _ -> None

let cold_warm_pairs = 5

let socket_track ~seed solver =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-bench-%d.sock" (Unix.getpid ()))
  in
  (* Wide local spaces with sparse requirements make the O(m·n²·v)
     oracle build dominate a request (cheap to parse, expensive to
     build, quick to solve) — the serving regime where the shared LRU
     pays. *)
  let cases =
    gen_cases ~n:192 ~local:2048 ~density:0.02 ~count:8 ~seed:(seed + 5000) ()
  in
  let lines = List.map Check.Case.to_string cases in
  let start () =
    Server.start
      (Server.config ~max_queue:128 ~seed ~solvers:(fun _ -> [ solver ]) (`Unix_path path))
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let ok responses =
    (* cheap check; conformance is the test suite's job *)
    List.for_all (fun r -> contains r "\"ok\":true") responses
  in
  let timed f =
    let t0 = Budget.now_ms () in
    let r = f () in
    (r, Budget.now_ms () -. t0)
  in
  (* Cold: every oracle is built.  Warm: same cases, all LRU hits.  One
     pair is two sub-second totals, so the gate reads the median ratio
     of several pairs, each on a fresh server.  The last pair's server
     stays up for the sustained pass. *)
  let last = ref None in
  let pair i =
    let server = start () in
    let cold_ok, cold_ms = timed (fun () -> ok (roundtrip path lines)) in
    let warm_ok, warm_ms = timed (fun () -> ok (roundtrip path lines)) in
    if i = cold_warm_pairs - 1 then last := Some server else Server.stop server;
    (cold_ms, warm_ms, cold_ok && warm_ok)
  in
  let pairs = List.init cold_warm_pairs pair in
  let server = Option.get !last in
  let median f = Hr_util.Stats.percentile (Array.of_list (List.map f pairs)) 50. in
  let cold_ms = median (fun (c, _, _) -> c) in
  let warm_ms = median (fun (_, w, _) -> w) in
  let speedup = median (fun (c, w, _) -> c /. w) in
  (* Sustained: a repeat-heavy trace from concurrent connections. *)
  let nclients = 4 and per_client = 16 in
  let shard ci =
    List.init per_client (fun i -> List.nth lines ((ci + (2 * i)) mod 8))
  in
  let results = Array.make nclients false in
  let (), sustained_ms =
    timed (fun () ->
        let threads =
          List.init nclients (fun ci ->
              Thread.create (fun () -> results.(ci) <- ok (roundtrip path (shard ci))) ())
        in
        List.iter Thread.join threads)
  in
  let sustained_ok = Array.for_all Fun.id results in
  let summary = Server.summary_json server in
  Server.stop server;
  let n = List.length cases in
  let sustained_n = nclients * per_client in
  let doc =
    Telemetry.Obj
      [
        ("instances", Telemetry.Int n);
        ( "pairs",
          Telemetry.List
            (List.map
               (fun (c, w, _) ->
                 Telemetry.Obj
                   [
                     ("cold_ms", Telemetry.Float c);
                     ("warm_ms", Telemetry.Float w);
                     ("warm_speedup", Telemetry.Float (c /. w));
                   ])
               pairs) );
        ("cold_ms", Telemetry.Float cold_ms);
        ("cold_per_s", Telemetry.Float (1000. *. float n /. cold_ms));
        ("warm_ms", Telemetry.Float warm_ms);
        ("warm_per_s", Telemetry.Float (1000. *. float n /. warm_ms));
        ("warm_speedup", Telemetry.Float speedup);
        ("sustained_requests", Telemetry.Int sustained_n);
        ("sustained_clients", Telemetry.Int nclients);
        ("sustained_ms", Telemetry.Float sustained_ms);
        ( "sustained_per_s",
          Telemetry.Float (1000. *. float sustained_n /. sustained_ms) );
        ( "latency",
          Option.value (field "latency" summary) ~default:Telemetry.Null );
        ( "lru_cache",
          Option.value (field "lru_cache" summary) ~default:Telemetry.Null );
      ]
  in
  (doc, speedup, List.for_all (fun (_, _, ok) -> ok) pairs && sustained_ok)

let parse_args () =
  let count = ref 1000 and seed = ref 2004 and out = ref "BENCH_serve.json" in
  let rec go = function
    | [] -> ()
    | "--instances" :: v :: rest ->
        count := int_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--out" :: v :: rest ->
        out := v;
        go rest
    | a :: _ -> failwith ("serve_bench: unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!count, !seed, !out)

let () =
  let count, seed, out = parse_args () in
  let solver = Solver_registry.find_exn "greedy" in
  let problems = gen_problems ~count ~seed in
  (* Warm both paths outside the timed region (domain machinery, minor
     heap sizing) on a small prefix. *)
  let warm = Array.sub problems 0 (min 8 count) in
  ignore (baseline_ms ~seed solver warm);
  ignore (pooled ~seed solver warm);
  let base_ms = baseline_ms ~seed solver problems in
  let batch, pool_ms = pooled ~seed solver problems in
  let errors =
    List.length
      (List.filter
         (fun r -> Result.is_error r.Batch.outcome)
         batch.Batch.responses)
  in
  let per_s ms = 1000. *. float count /. ms in
  let speedup = base_ms /. pool_ms in

  (* --- table-cache track: cold batch, then warm batch --------------- *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-bench-cache-%d" (Unix.getpid ()))
  in
  let cache = Table_cache.of_dir cache_dir in
  let cases = gen_cases ~count:32 ~seed () in
  let cold_batch, cold_ms = cached_batch ~seed ~cache_dir solver cases in
  let warm_batch, warm_ms = cached_batch ~seed ~cache_dir solver cases in
  let cstats = Table_cache.stats cache in
  let warm_identical =
    List.for_all2
      (fun a b ->
        match (a, b) with
        | Some (a : Solution.t), Some (b : Solution.t) ->
            a.Solution.cost = b.Solution.cost
            && Breakpoints.equal a.Solution.bp b.Solution.bp
        | None, None -> true
        | _ -> false)
      (plans cold_batch) (plans warm_batch)
  in
  (try
     Array.iter
       (fun e -> try Sys.remove (Filename.concat cache_dir e) with Sys_error _ -> ())
       (Sys.readdir cache_dir)
   with Sys_error _ -> ());
  (try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());

  (* --- sustained-load socket-server track -------------------------- *)
  let socket_doc, warm_speedup, socket_ok = socket_track ~seed solver in

  let doc =
    Telemetry.Obj
      [
        ("schema", Telemetry.String "hyperreconf.bench/1");
        ("bench", Telemetry.String "serve-throughput");
        ("instances", Telemetry.Int count);
        ("seed", Telemetry.Int seed);
        ("baseline_ms", Telemetry.Float base_ms);
        ("baseline_per_s", Telemetry.Float (per_s base_ms));
        ("pooled_ms", Telemetry.Float pool_ms);
        ("pooled_per_s", Telemetry.Float (per_s pool_ms));
        ("speedup", Telemetry.Float speedup);
        ( "table_cache",
          Telemetry.Obj
            [
              ("instances", Telemetry.Int (List.length cases));
              ("cold_ms", Telemetry.Float cold_ms);
              ("warm_ms", Telemetry.Float warm_ms);
              ("speedup", Telemetry.Float (cold_ms /. warm_ms));
              ("hits", Telemetry.Int cstats.Table_cache.hits);
              ("misses", Telemetry.Int cstats.Table_cache.misses);
              ("stores", Telemetry.Int cstats.Table_cache.stores);
              ("warm_identical", Telemetry.Bool warm_identical);
            ] );
        ("socket_server", socket_doc);
      ]
  in
  let oc = open_out out in
  output_string oc (Telemetry.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "serve-throughput: %d instances | per-call spawn %.1f ms (%.0f/s) | pooled \
     batch %.1f ms (%.0f/s) | speedup %.1fx | summary %s\n"
    count base_ms (per_s base_ms) pool_ms (per_s pool_ms) speedup out;
  Printf.printf
    "table-cache: %d instances | cold %.1f ms | warm %.1f ms (%.1fx) | %d \
     hit(s), %d store(s)\n"
    (List.length cases) cold_ms warm_ms (cold_ms /. warm_ms)
    cstats.Table_cache.hits cstats.Table_cache.stores;
  (let f name =
     match field name socket_doc with
     | Some (Telemetry.Float v) -> v
     | _ -> 0.
   in
   Printf.printf
     "socket-server: median of %d pairs cold %.1f ms | warm %.1f ms (%.1fx) | \
      sustained %.1f ms (%.0f req/s over %d clients)\n"
     cold_warm_pairs (f "cold_ms") (f "warm_ms") warm_speedup (f "sustained_ms")
     (f "sustained_per_s")
     (match field "sustained_clients" socket_doc with
     | Some (Telemetry.Int i) -> i
     | _ -> 0));
  if not socket_ok then begin
    Printf.eprintf "serve_bench: socket-server track returned error responses\n";
    exit 1
  end;
  if warm_speedup < 5. then begin
    Printf.eprintf
      "serve_bench: warm socket throughput only %.1fx cold, median of %d pairs \
       (need >= 5x)\n"
      warm_speedup cold_warm_pairs;
    exit 1
  end;
  if not warm_identical then begin
    Printf.eprintf "serve_bench: warm-cache plans differ from cold plans\n";
    exit 1
  end;
  if errors > 0 then begin
    Printf.eprintf "serve_bench: %d batched solves errored\n" errors;
    exit 1
  end
