(* CLI: the batched solve service.

   hrserve [--stdio | --listen ADDR]
           [--workers N] [--deadline-ms MS] [--solver NAME]...
           [--max-queue N] [--seed S] [--summary FILE]
           [--cache-dir DIR] [--max-table-mb MB] [--max-lru-mb MB]
           [--no-timing]

   One serving core (lib/serve) behind two transports, over the same
   JSON-lines protocol (docs/serving.md).  Each input line is a
   `hyperreconf.case/1` document (the conformance-corpus format) or an
   envelope {"id": ..., "deadline_ms": ..., "case": {...}}; queued
   requests are solved in batches on the persistent domain pool with a
   solver race per instance, and each connection gets one
   `hyperreconf.result/1` line per request, in input order.

   - stdio (the default, or --stdio): one connection over stdin/stdout.
     A full queue stops the reading (backpressure); at EOF, once every
     reply is written, the server stops.
   - --listen unix:PATH or tcp:HOST:PORT: a long-lived concurrent
     socket server.  Many clients multiplex onto one pool and one shared
     LRU oracle cache; past --max-queue queued requests admission sheds
     load with structured `overloaded` errors.  On SIGINT/SIGTERM the
     server drains in-flight work and stops.

   Either way the `hyperreconf.serve/1` summary (line counts, latency
   percentiles, cache hit-rates) goes to --summary when the server
   stops.  Malformed lines and failing solves produce structured error
   results — the process never dies on a bad request.  Oracle reuse is
   two-level: the in-process build cache (byte-budgeted LRU under
   --max-lru-mb) shares problems across batches and clients, and with
   --cache-dir the dense tables also persist on disk across restarts
   (docs/caching.md). *)

open Cmdliner
open Hr_core
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

let run stdio listen workers deadline_ms solver_names max_queue seed summary_file
    cache_dir max_table_mb max_lru_mb no_timing =
  if max_queue < 1 then failwith "--max-queue must be >= 1";
  let mib what = Option.map (fun s -> Hr_util.Cli.positive_exn ~what s * 1024 * 1024) in
  let max_table_bytes = mib "--max-table-mb" max_table_mb in
  let max_lru_bytes = mib "--max-lru-mb" max_lru_mb in
  let listen =
    match listen with
    | None -> `Stdio (Unix.stdin, Unix.stdout)
    | Some _ when stdio -> failwith "--stdio and --listen are mutually exclusive"
    | Some addr -> (
        match Server.listen_of_string addr with Ok l -> l | Error e -> failwith e)
  in
  let cfg =
    Server.config ?workers ?deadline_ms ~max_queue ~seed
      ~solvers:(solvers_of_names solver_names) ?max_lru_bytes ?max_table_bytes
      ?cache_dir ~timing:(not no_timing) listen
  in
  (match listen with
  | `Stdio _ -> ()
  | `Unix_path _ | `Tcp _ ->
      Printf.eprintf "hrserve: listening on %s (max queue %d)\n%!"
        (Server.listen_to_string listen) max_queue);
  Server.run cfg ~summary:(fun json ->
      write_summary summary_file json;
      let field k =
        match json with Telemetry.Obj fields -> List.assoc_opt k fields | _ -> None
      in
      let geti k = match field k with Some (Telemetry.Int i) -> i | _ -> 0 in
      Printf.eprintf
        "hrserve: %d connection(s), %d completed, %d shed, %d malformed, %d \
         error(s), %.1f ms solving\n"
        (geti "connections") (geti "completed") (geti "shed") (geti "malformed")
        (geti "errors")
        (match field "solve_ms" with Some (Telemetry.Float f) -> f | _ -> 0.));
  0

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:
          "Serve one connection over stdin/stdout (the default when \
           $(b,--listen) is absent); the server stops at EOF, once every \
           reply is written.")

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
          "Global cooperative budget per dispatched batch (on both transports), \
           carved into fair per-request slices.  Cut-off results are \
           best-so-far plans, marked inexact.  Per-request $(i,deadline_ms) \
           envelope fields tighten (never extend) this budget.")

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
          "Admission bound: at most $(docv) requests wait in the queue, and a \
           dispatched batch takes up to $(docv).  On a full queue stdio stops \
           reading stdin until there is room (backpressure, never shedding); a \
           socket answers the request with a structured $(i,overloaded) error \
           instead of queueing it (load shedding), never dropping it.")

let seed =
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"S" ~doc:"Solver RNG base seed.")

let summary_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary" ] ~docv:"FILE"
        ~doc:
          "Write the hyperreconf.serve/1 summary to $(docv) when the server \
           stops: at EOF (stdio) or after SIGINT/SIGTERM's drain (socket).")

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
      $ max_queue $ seed $ summary_file $ cache_dir $ max_table_mb $ max_lru_mb
      $ no_timing)

let () =
  match Cmd.eval' ~catch:false cmd with
  | code -> exit code
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
      Printf.eprintf "hrserve: %s\n" msg;
      exit 2
