open Hr_core
module Pool = Hr_util.Pool
module Budget = Hr_util.Budget

let summary_schema_version = "hyperreconf.serve/1"

type listen =
  [ `Unix_path of string | `Tcp of string * int | `Stdio of Unix.file_descr * Unix.file_descr ]

let listen_to_string = function
  | `Unix_path p -> "unix:" ^ p
  | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" (if h = "" then "*" else h) p
  | `Stdio _ -> "stdio"

let listen_of_string s =
  let unix path =
    if path = "" then Error "empty unix socket path" else Ok (`Unix_path path)
  in
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      unix (String.sub s (i + 1) (String.length s - i - 1))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 -> Ok (`Tcp (host, p))
          | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
  | _ ->
      (* A bare path is a unix socket — the common CLI shorthand. *)
      if String.contains s '/' then unix s
      else Error (Printf.sprintf "bad listen address %S (expected unix:PATH or tcp:HOST:PORT)" s)

type config = {
  listen : listen;
  workers : int option;
  deadline_ms : int option;
  max_queue : int;
  seed : int;
  solvers : Problem.t -> Solver.t list;
  max_lru_bytes : int option;
  max_table_bytes : int option;
  cache_dir : string option;
  timing : bool;
  before_batch : (unit -> unit) option;
}

let config ?workers ?deadline_ms ?(max_queue = 64) ?(seed = Solver.default_seed)
    ?(solvers = Solver_registry.applicable) ?max_lru_bytes ?max_table_bytes
    ?cache_dir ?(timing = true) ?before_batch listen =
  if max_queue < 1 then invalid_arg "Server.config: max_queue must be >= 1";
  {
    listen;
    workers;
    deadline_ms;
    max_queue;
    seed;
    solvers;
    max_lru_bytes;
    max_table_bytes;
    cache_dir;
    timing;
    before_batch;
  }

(* One place in a connection's reply sequence: [None] until its reply
   line is known. *)
type slot = { mutable line : string option }

(* Per-connection state.  [cmu] guards the out_channel and the reply
   sequence.  Every admitted request and every malformed line takes the
   next slot, so replies go out in input order however the batches
   finish; the connection is drained when its sequence is empty. *)
type conn = {
  oc : out_channel;
  cmu : Mutex.t;
  drained : Condition.t;
  replies : slot Queue.t;
  waits : bool;  (* stdio: wait for queue room instead of shedding *)
  dead : bool Atomic.t;  (* a write failed: replies are dropped, reading stops *)
}

(* One admitted request waiting for (or in) a batch. *)
type pending_req = {
  preq : Batch.request;
  admitted_ms : float;
  conn : conn;
  slot : slot;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Batch.build_cache;
  metrics : Metrics.t;
  listen_fd : Unix.file_descr option;  (* None on stdio *)
  started_ms : float;
  mu : Mutex.t;
  nonempty : Condition.t;
  room : Condition.t;
  queue : pending_req Queue.t;
  mutable stopping : bool;  (* no new connections; socket admission sheds *)
  mutable readers_done : bool;  (* every connection has drained *)
  mutable connections : int;  (* lifetime accepted *)
  mutable open_fds : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable dispatch_thread : Thread.t option;
  mutable solve_ms : float;  (* summed batch wall clocks *)
  mutable batches : int;
  mutable stopped_summary : Telemetry.json option;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ------------------------------------------------------------------ *)
(* Summary document.                                                   *)

let summary_json t =
  match t.stopped_summary with
  | Some j -> j
  | None ->
      let m = Metrics.snapshot t.metrics in
      let cache = Batch.build_cache_stats t.cache in
      let uptime_ms = Budget.now_ms () -. t.started_ms in
      Telemetry.Obj
        [
          ("schema", Telemetry.String summary_schema_version);
          ("label", Telemetry.String "hrserve");
          ("listen", Telemetry.String (listen_to_string t.cfg.listen));
          ("connections", Telemetry.Int t.connections);
          ("admitted", Telemetry.Int m.Metrics.admitted);
          ("shed", Telemetry.Int m.Metrics.shed);
          ("malformed", Telemetry.Int m.Metrics.malformed);
          ("completed", Telemetry.Int m.Metrics.completed);
          ("ok", Telemetry.Int (m.Metrics.completed - m.Metrics.errors));
          ("errors", Telemetry.Int m.Metrics.errors);
          ("cut_off", Telemetry.Int m.Metrics.cut_off);
          ("workers", Telemetry.Int (Pool.size t.pool));
          ( "deadline_ms",
            match t.cfg.deadline_ms with
            | Some ms -> Telemetry.Int ms
            | None -> Telemetry.Null );
          ("max_queue", Telemetry.Int t.cfg.max_queue);
          ("batches", Telemetry.Int t.batches);
          ("solve_ms", Telemetry.Float t.solve_ms);
          ("uptime_ms", Telemetry.Float uptime_ms);
          ( "throughput_per_s",
            if t.solve_ms > 0. then
              Telemetry.Float (1000. *. float m.Metrics.completed /. t.solve_ms)
            else Telemetry.Null );
          ("latency", Telemetry.latency_summary m.Metrics.samples);
          ("lru_cache", Batch.build_cache_stats_to_json cache);
          ("table_cache", Telemetry.table_cache_summary t.cfg.cache_dir);
        ]

(* ------------------------------------------------------------------ *)
(* Replies.                                                            *)

(* Under [c.cmu].  A failed write ends the connection's output: later
   replies are dropped and the reader stops at its next line. *)
let output c f =
  if not (Atomic.get c.dead) then
    try f c.oc with Sys_error _ -> Atomic.set c.dead true

(* Under [c.cmu]: write out every known reply at the head of the
   sequence. *)
let write_head c =
  let rec go () =
    match Queue.peek_opt c.replies with
    | Some { line = Some l } ->
        ignore (Queue.pop c.replies);
        output c (fun oc -> output_string oc l);
        go ()
    | Some { line = None } | None -> ()
  in
  go ();
  output c flush;
  if Queue.is_empty c.replies then Condition.broadcast c.drained

(* The next place in [c]'s reply sequence. *)
let reserve c =
  locked c.cmu (fun () ->
      let slot = { line = None } in
      Queue.push slot c.replies;
      slot)

let reply c slot line =
  locked c.cmu (fun () ->
      slot.line <- Some line;
      write_head c)

(* Out of sequence: an overloaded reply goes out at once. *)
let reply_now c line =
  locked c.cmu (fun () ->
      output c (fun oc ->
          output_string oc line;
          flush oc))

(* ------------------------------------------------------------------ *)
(* Dispatcher: each batch is the whole admission queue — at most
   max_queue requests, in admission order — run as one Batch.run on the
   pool.  Runs until every connection has drained, so shutdown never
   drops an admitted request. *)

let dispatch_loop t =
  let rec go () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.readers_done do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu
    else begin
      let pendings = List.of_seq (Queue.to_seq t.queue) in
      Queue.clear t.queue;
      Condition.broadcast t.room;
      Mutex.unlock t.mu;
      Option.iter (fun f -> f ()) t.cfg.before_batch;
      let batch =
        Batch.run ~pool:t.pool ~seed:t.cfg.seed ?deadline_ms:t.cfg.deadline_ms
          ~solvers:t.cfg.solvers ~cache:t.cache
          (List.map (fun p -> p.preq) pendings)
      in
      Mutex.lock t.mu;
      t.solve_ms <- t.solve_ms +. batch.Batch.total_ms;
      t.batches <- t.batches + 1;
      Mutex.unlock t.mu;
      let now = Budget.now_ms () in
      List.iter2
        (fun p r ->
          Metrics.complete t.metrics ~latency_ms:(now -. p.admitted_ms) r;
          reply p.conn p.slot (Protocol.response_line ~timing:t.cfg.timing r))
        pendings batch.Batch.responses;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Connections: one reader per connection, whatever the transport.     *)

let admit t c req =
  let refusal =
    locked t.mu (fun () ->
        let full () = Queue.length t.queue >= t.cfg.max_queue in
        (* The transport decides: stdio applies backpressure, sockets
           shed load. *)
        let refusal =
          if c.waits then begin
            while full () do
              Condition.wait t.room t.mu
            done;
            None
          end
          else if t.stopping then Some "overloaded: server shutting down"
          else if full () then
            Some
              (Printf.sprintf "overloaded: admission queue full (%d queued, max %d)"
                 (Queue.length t.queue) t.cfg.max_queue)
          else None
        in
        (match refusal with
        | None ->
            Metrics.admit t.metrics;
            Queue.push
              { preq = req; admitted_ms = Budget.now_ms (); conn = c; slot = reserve c }
              t.queue;
            Condition.signal t.nonempty
        | Some _ -> Metrics.shed t.metrics);
        refusal)
  in
  (* Load shedding is an answer, not a dropped connection: the client
     gets a structured error result for this id. *)
  Option.iter
    (fun msg ->
      reply_now c
        (Protocol.response_line ~timing:t.cfg.timing
           (Batch.error_response ~id:req.Batch.id msg)))
    refusal

let conn ~waits output =
  {
    oc = Unix.out_channel_of_descr output;
    cmu = Mutex.create ();
    drained = Condition.create ();
    replies = Queue.create ();
    waits;
    dead = Atomic.make false;
  }

(* Read, parse and admit lines until EOF (or a dead output), then wait
   until every reply in the sequence is written. *)
let serve_conn t c ic =
  let rec loop k =
    if not (Atomic.get c.dead) then
      match input_line ic with
      | exception (End_of_file | Sys_error _) -> ()
      | line when String.trim line = "" -> loop k
      | line ->
          (match
             Protocol.parse_line ?max_table_bytes:t.cfg.max_table_bytes
               ?cache_dir:t.cfg.cache_dir
               ~fallback_id:(Printf.sprintf "#%d" k)
               line
           with
          | Protocol.Malformed { id; error } ->
              Metrics.malformed t.metrics;
              reply c (reserve c)
                (Protocol.response_line ~timing:t.cfg.timing
                   (Batch.error_response ~id ("bad request: " ^ error)))
          | Protocol.Request req -> admit t c req);
          loop (k + 1)
  in
  loop 0;
  locked c.cmu (fun () ->
      while not (Queue.is_empty c.replies) do
        Condition.wait c.drained c.cmu
      done)

let handle_socket t fd =
  let c = conn ~waits:false fd in
  serve_conn t c (Unix.in_channel_of_descr fd);
  Mutex.lock t.mu;
  t.open_fds <- List.filter (fun f -> f != fd) t.open_fds;
  Mutex.unlock t.mu;
  close_out_noerr c.oc

(* Accept via select with a short tick so [stop] can interrupt the loop
   portably (closing an fd does not wake a blocked accept on Linux). *)
let accept_loop t listen_fd =
  let rec go () =
    if t.stopping then ()
    else
      match Unix.select [ listen_fd ] [] [] 0.1 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.accept ~cloexec:true listen_fd with
          | fd, _ ->
              Mutex.lock t.mu;
              if t.stopping then begin
                Mutex.unlock t.mu;
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                t.connections <- t.connections + 1;
                t.open_fds <- fd :: t.open_fds;
                let th = Thread.create (fun () -> handle_socket t fd) () in
                t.conn_threads <- th :: t.conn_threads;
                Mutex.unlock t.mu
              end;
              go ()
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              go ()
          | exception Unix.Unix_error _ -> if t.stopping then () else go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let bind_listen = function
  | `Unix_path path ->
      (* Remove a stale socket file (and only a socket file — anything
         else at that path is the operator's, not ours). *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> failwith (Printf.sprintf "listen path %s exists and is not a socket" path)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let addr =
        if host = "" || host = "*" then Unix.inet_addr_any
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

let address t =
  match t.listen_fd with
  | Some fd -> Unix.getsockname fd
  | None -> invalid_arg "Server.address: the stdio transport has no address"

let start cfg =
  (* A client disconnecting mid-write, or a closed stdout, must surface
     as an exception on that write, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd =
    match cfg.listen with
    | `Stdio _ -> None
    | (`Unix_path _ | `Tcp _) as l -> Some (bind_listen l)
  in
  let t =
    {
      cfg;
      pool = Pool.create ?workers:cfg.workers ();
      cache = Batch.build_cache ?max_bytes:cfg.max_lru_bytes ();
      metrics = Metrics.create ();
      listen_fd;
      started_ms = Budget.now_ms ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      room = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      readers_done = false;
      connections = 0;
      open_fds = [];
      conn_threads = [];
      accept_thread = None;
      dispatch_thread = None;
      solve_ms = 0.;
      batches = 0;
      stopped_summary = None;
    }
  in
  t.dispatch_thread <- Some (Thread.create (fun () -> dispatch_loop t) ());
  (* stdio is one connection over the two descriptors, which stay the
     caller's: the server flushes its replies but closes neither. *)
  (match cfg.listen with
  | `Stdio (input, output) ->
      t.connections <- 1;
      t.conn_threads <-
        [
          Thread.create
            (fun () -> serve_conn t (conn ~waits:true output) (Unix.in_channel_of_descr input))
            ();
        ]
  | `Unix_path _ | `Tcp _ -> ());
  Option.iter
    (fun fd -> t.accept_thread <- Some (Thread.create (fun () -> accept_loop t fd) ()))
    listen_fd;
  t

let stop t =
  let already =
    Mutex.lock t.mu;
    let was = t.stopping in
    t.stopping <- true;
    Mutex.unlock t.mu;
    was
  in
  if not already then begin
    (* 1. Stop accepting. *)
    Option.iter Thread.join t.accept_thread;
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listen_fd;
    (match t.cfg.listen with
    | `Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Tcp _ | `Stdio _ -> ());
    (* 2. Force EOF on idle socket readers (the stdio reader runs to its
       own EOF); admitted requests stay in flight — each connection
       ends only after its reply sequence is written. *)
    let fds =
      Mutex.lock t.mu;
      let fds = t.open_fds in
      Mutex.unlock t.mu;
      fds
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      fds;
    let conn_threads =
      Mutex.lock t.mu;
      let ths = t.conn_threads in
      Mutex.unlock t.mu;
      ths
    in
    List.iter Thread.join conn_threads;
    (* 3. Every connection has drained, so the queue is dry: let the
       dispatcher exit. *)
    Mutex.lock t.mu;
    t.readers_done <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mu;
    Option.iter Thread.join t.dispatch_thread;
    (* 4. Snapshot the summary BEFORE tearing the pool down — the
       workers count and cache statistics must describe the serving
       process, not its corpse. *)
    t.stopped_summary <- Some (summary_json { t with stopped_summary = None });
    Pool.shutdown t.pool
  end

let stop_requested = Atomic.make false

let run ?(handle_signals = true) cfg ~summary =
  Atomic.set stop_requested false;
  let t, previous =
    match cfg.listen with
    | `Stdio _ ->
        (* No signal handlers: the input's EOF is the stop request. *)
        let t = start cfg in
        List.iter Thread.join t.conn_threads;
        (t, [])
    | `Unix_path _ | `Tcp _ ->
        let previous =
          if handle_signals then
            List.map
              (fun s ->
                ( s,
                  Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))
                ))
              [ Sys.sigint; Sys.sigterm ]
          else []
        in
        let t = start cfg in
        while not (Atomic.get stop_requested) do
          Thread.delay 0.05
        done;
        (t, previous)
  in
  stop t;
  List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) previous;
  summary (summary_json t)

let request_stop () = Atomic.set stop_requested true
