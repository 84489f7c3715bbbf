(* CLI: the batched solve service.

   hrserve [--stdio | --listen ADDR]
           [--workers N] [--deadline-ms MS] [--solver NAME]...
           [--max-queue N] [--max-batch N] [--seed S] [--summary FILE]
           [--cache-dir DIR] [--max-table-mb MB] [--max-lru-mb MB]
           [--oracle dense|sparse|auto] [--no-timing]

   Two front-ends over the same JSON-lines protocol (docs/serving.md):

   - stdio (the default, or --stdio): a request/response loop over
     stdin/stdout.  Each input line is a `hyperreconf.case/1` document
     (the conformance-corpus format) or an envelope
     {"id": ..., "deadline_ms": ..., "case": {...}}; requests are
     collected into batches of at most --max-queue and solved on the
     persistent domain pool with a solver race per instance; one
     `hyperreconf.result/1` line is written per request, in input
     order.  At EOF a `hyperreconf.batch/1` summary goes to --summary.

   - --listen unix:PATH or tcp:HOST:PORT: a long-lived concurrent
     socket server (lib/serve).  Many clients multiplex onto one pool
     and one shared LRU oracle cache; past --max-queue queued requests
     admission sheds load with structured `overloaded` errors.  On
     SIGINT/SIGTERM the server drains in-flight work and writes a
     `hyperreconf.serve/1` summary (latency percentiles, cache
     hit-rates) to --summary.

   Malformed lines and failing solves produce structured error results
   — the process never dies on a bad request.  Oracle reuse is
   two-level: the in-process build cache (byte-budgeted LRU under
   --max-lru-mb) shares problems across batches and clients, and with
   --cache-dir the dense tables also persist on disk across restarts
   (docs/caching.md). *)

open Cmdliner
open Hr_core
module Protocol = Hr_serve.Protocol
module Server = Hr_serve.Server

let solvers_of_names names =
  match names with
  | [] -> Solver_registry.applicable
  | names ->
      let chosen = List.map Solver_registry.find_exn names in
      fun problem -> List.filter (fun (s : Solver.t) -> s.Solver.handles problem) chosen

let write_summary path json =
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Telemetry.json_to_string json)))
    path

(* ------------------------------------------------------------------ *)
(* stdio mode: batch loop over stdin/stdout.                           *)

let run_stdio ~workers ~deadline_ms ~solvers ~max_queue ~seed ~summary_file
    ~cache_dir ~max_table_bytes ~max_lru_bytes ~oracle ~timing =
  let pool = Hr_util.Pool.create ?workers () in
  (* Outlives every batch: later batches reuse earlier batches'
     precomputed problems, within the LRU byte budget. *)
  let build_cache = Batch.build_cache ?max_bytes:max_lru_bytes () in
  (* Each response is counted as it is written and then dropped, so a
     long stream runs in constant memory; only the solve latencies are
     kept, for the percentiles. *)
  let summary =
    ref
      {
        Batch.size = 0;
        ok = 0;
        cut_off = 0;
        total_ms = 0.;
        workers = 0;
        deadline_ms;
        shared_builds = 0;
      }
  in
  let samples = ref (Array.make 64 0.) and nsamples = ref 0 in
  let emit (r : Batch.response) =
    summary := Batch.count !summary r;
    if Result.is_ok r.Batch.outcome then begin
      if !nsamples = Array.length !samples then
        samples := Array.append !samples (Array.make !nsamples 0.);
      !samples.(!nsamples) <- r.Batch.wall_ms;
      incr nsamples
    end;
    print_string (Protocol.response_line ~timing r);
    flush stdout
  in
  let flush_batch pending =
    (* [pending] is reversed (request order restored here); parse
       failures already carry their error outcome and skip the pool. *)
    let batch_requests =
      List.filter_map
        (function Protocol.Request r -> Some r | Protocol.Malformed _ -> None)
        pending
    in
    let batch =
      Batch.run ~pool ~seed ?deadline_ms ~solvers ~cache:build_cache
        (List.rev batch_requests)
    in
    summary :=
      {
        !summary with
        total_ms = !summary.total_ms +. batch.Batch.total_ms;
        shared_builds = !summary.shared_builds + batch.Batch.shared_builds;
      };
    let solved = ref batch.Batch.responses in
    List.iter
      (function
        | Protocol.Malformed { id; error } ->
            emit (Batch.error_response ~id ("bad request: " ^ error))
        | Protocol.Request _ -> (
            match !solved with
            | r :: rest ->
                solved := rest;
                emit r
            | [] -> assert false (* one response per request, in order *)))
      (List.rev pending)
  in
  let rec serve pending npending k =
    match input_line stdin with
    | exception End_of_file -> if pending <> [] then flush_batch pending
    | line when String.trim line = "" -> serve pending npending k
    | line ->
        let pending =
          Protocol.parse_line ?max_table_bytes ?cache_dir ~oracle
            ~fallback_id:(Printf.sprintf "#%d" k) line
          :: pending
        in
        if npending + 1 >= max_queue then begin
          flush_batch pending;
          serve [] 0 (k + 1)
        end
        else serve pending (npending + 1) (k + 1)
  in
  serve [] 0 0;
  (* Snapshot the summary BEFORE the pool goes down: Pool.size and the
     cache statistics must describe the pool that did the work. *)
  let summary = { !summary with workers = Hr_util.Pool.size pool } in
  let solve_samples = Array.sub !samples 0 !nsamples in
  let extra =
    [
      ("lru_cache", Batch.build_cache_stats_to_json (Batch.build_cache_stats build_cache));
      ("latency", Telemetry.latency_summary solve_samples);
      ("table_cache", Telemetry.table_cache_summary cache_dir);
    ]
  in
  Hr_util.Pool.shutdown pool;
  write_summary summary_file
    (Batch.to_json ~label:"hrserve" ~extra summary);
  Printf.eprintf "hrserve: %d request(s), %d ok, %d error(s), %.1f ms solving%s\n"
    summary.Batch.size summary.Batch.ok
    (summary.Batch.size - summary.Batch.ok)
    summary.Batch.total_ms
    (match cache_dir with
    | Some dir ->
        let s = Table_cache.stats (Table_cache.of_dir dir) in
        Printf.sprintf ", table cache %d hit(s) / %d miss(es) / %d store(s)"
          s.Table_cache.hits s.Table_cache.misses s.Table_cache.stores
    | None -> "");
  0

(* ------------------------------------------------------------------ *)
(* Socket mode: long-lived concurrent server.                          *)

let run_socket ~listen ~workers ~deadline_ms ~solvers ~max_queue ~max_batch
    ~seed ~summary_file ~cache_dir ~max_table_bytes ~max_lru_bytes ~oracle
    ~timing =
  let cfg =
    Server.config ?workers ?deadline_ms ~max_queue ?max_batch ~seed ~solvers
      ?max_lru_bytes ?max_table_bytes ?cache_dir ~oracle ~timing listen
  in
  Printf.eprintf "hrserve: listening on %s (max queue %d)\n%!"
    (Server.listen_to_string listen) max_queue;
  Server.run cfg ~summary:(fun json ->
      write_summary summary_file json;
      let geti k =
        match json with
        | Telemetry.Obj fields -> (
            match List.assoc_opt k fields with
            | Some (Telemetry.Int i) -> i
            | _ -> 0)
        | _ -> 0
      in
      Printf.eprintf
        "hrserve: %d connection(s), %d completed, %d shed, %d error(s), %.1f ms solving\n"
        (geti "connections") (geti "completed") (geti "shed") (geti "errors")
        (match json with
        | Telemetry.Obj fields -> (
            match List.assoc_opt "solve_ms" fields with
            | Some (Telemetry.Float f) -> f
            | _ -> 0.)
        | _ -> 0.));
  0

(* ------------------------------------------------------------------ *)

let run stdio listen workers deadline_ms solver_names max_queue max_batch seed
    summary_file cache_dir max_table_mb max_lru_mb oracle_policy no_timing =
  if max_queue < 1 then failwith "--max-queue must be >= 1";
  let mib what = Option.map (fun s -> Hr_util.Cli.positive_exn ~what s * 1024 * 1024) in
  let max_table_bytes = mib "--max-table-mb" max_table_mb in
  let max_lru_bytes = mib "--max-lru-mb" max_lru_mb in
  let oracle =
    Hr_util.Cli.enum_exn ~what:"--oracle" Interval_cost.policy_enum oracle_policy
  in
  let solvers = solvers_of_names solver_names in
  let timing = not no_timing in
  match listen with
  | None ->
      run_stdio ~workers ~deadline_ms ~solvers ~max_queue ~seed ~summary_file
        ~cache_dir ~max_table_bytes ~max_lru_bytes ~oracle ~timing
  | Some addr ->
      if stdio then failwith "--stdio and --listen are mutually exclusive";
      let listen =
        match Server.listen_of_string addr with
        | Ok l -> l
        | Error e -> failwith e
      in
      run_socket ~listen ~workers ~deadline_ms ~solvers ~max_queue ~max_batch
        ~seed ~summary_file ~cache_dir ~max_table_bytes ~max_lru_bytes ~oracle
        ~timing

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:
          "Serve the JSON-lines loop over stdin/stdout (the default when \
           $(b,--listen) is absent).")

let listen =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve concurrently on a socket instead of stdin: $(b,unix:PATH) or \
           $(b,tcp:HOST:PORT) (empty or * host binds every interface; port 0 \
           picks a free port).  Stop with SIGINT/SIGTERM — in-flight requests \
           are drained, then the hyperreconf.serve/1 summary is written.")

let workers =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains in the solve pool (default: the recommended domain count).")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Global cooperative budget per batch, carved into fair per-request \
           slices.  Cut-off results are best-so-far plans, marked inexact.  \
           Per-request $(i,deadline_ms) envelope fields tighten (never extend) \
           this budget.")

let solver_names =
  Arg.(
    value
    & opt_all string []
    & info [ "solver" ] ~docv:"NAME"
        ~doc:
          "Race only this registered solver (repeatable).  Default: every \
           applicable registered solver.")

let max_queue =
  Arg.(
    value
    & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Bounded request queue.  stdio: at most $(docv) requests are read \
           before the batch is solved and answered (backpressure on stdin).  \
           Socket: admission bound — beyond it requests are answered with \
           structured $(i,overloaded) errors instead of queueing (load \
           shedding), never dropped.")

let max_batch =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-batch" ] ~docv:"N"
        ~doc:
          "Socket mode: at most $(docv) queued requests are drained into one \
           pool batch (default: $(b,--max-queue)).")

let seed =
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"S" ~doc:"Solver RNG base seed.")

let summary_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary" ] ~docv:"FILE"
        ~doc:
          "Write the aggregated summary to $(docv): hyperreconf.batch/1 at EOF \
           (stdio), hyperreconf.serve/1 at shutdown (socket).")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent dense-table cache directory (created if missing): tables \
           are mmap-loaded from it instead of being rebuilt, and stored into it \
           after cold builds — reuse survives server restarts.")

let max_table_mb =
  Arg.(
    value
    & opt (some string) None
    & info [ "max-table-mb" ] ~docv:"MB"
        ~doc:
          "Per-instance dense-table memory cap in MiB (a positive integer; \
           default 128).  A switch-model table takes m·n(n+1) bytes at 16 \
           bits; instances whose table would exceed it use the sparse index \
           (switch cases) or stay uncached (DAG cases).  Weighted-switch \
           tables have no sparse form and are always built.")

let max_lru_mb =
  Arg.(
    value
    & opt (some string) None
    & info [ "max-lru-mb" ] ~docv:"MB"
        ~doc:
          "Byte budget in MiB for the in-process oracle cache (a positive \
           integer).  Least-recently-used problems are evicted past it; \
           default: unbounded, the pre-LRU behaviour.")

let oracle_policy =
  Arg.(
    value
    & opt string "auto"
    & info [ "oracle" ] ~docv:"POLICY"
        ~doc:
          "Oracle ladder rung for switch-model cases: $(b,dense) (always the \
           O(1) precomputed table), $(b,sparse) (always the occurrence index \
           — linear memory, never densified, bypasses the table cache), or \
           $(b,auto) (dense while it fits the byte budget; the default).")

let no_timing =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "Zero the wall_ms field of every result (deterministic output for \
           byte-for-byte comparison across runs and transports).")

let cmd =
  let doc = "batched PHC solve service (JSON lines on stdin or a socket)" in
  Cmd.v (Cmd.info "hrserve" ~doc)
    Term.(
      const run $ stdio $ listen $ workers $ deadline_ms $ solver_names
      $ max_queue $ max_batch $ seed $ summary_file $ cache_dir $ max_table_mb
      $ max_lru_mb $ oracle_policy $ no_timing)

let () =
  match Cmd.eval' ~catch:false cmd with
  | code -> exit code
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
      Printf.eprintf "hrserve: %s\n" msg;
      exit 2
