open Hr_core
module Pool = Hr_util.Pool
module Budget = Hr_util.Budget

let summary_schema_version = "hyperreconf.serve/1"

type listen = [ `Unix_path of string | `Tcp of string * int ]

let listen_to_string = function
  | `Unix_path p -> "unix:" ^ p
  | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" (if h = "" then "*" else h) p

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
  max_batch : int;
  seed : int;
  solvers : Problem.t -> Solver.t list;
  max_lru_bytes : int option;
  max_table_bytes : int option;
  cache_dir : string option;
  oracle : Interval_cost.policy option;
  timing : bool;
  before_batch : (unit -> unit) option;
}

let config ?workers ?deadline_ms ?(max_queue = 64) ?max_batch
    ?(seed = Solver.default_seed) ?(solvers = Solver_registry.applicable)
    ?max_lru_bytes ?max_table_bytes ?cache_dir ?oracle ?(timing = true)
    ?before_batch listen =
  if max_queue < 1 then invalid_arg "Server.config: max_queue must be >= 1";
  let max_batch = max 1 (Option.value max_batch ~default:max_queue) in
  {
    listen;
    workers;
    deadline_ms;
    max_queue;
    max_batch;
    seed;
    solvers;
    max_lru_bytes;
    max_table_bytes;
    cache_dir;
    oracle;
    timing;
    before_batch;
  }

(* One admitted request waiting for (or in) a batch. *)
type pending_req = {
  preq : Batch.request;
  admitted_ms : float;
  reply : Batch.response -> unit;
}

(* Per-connection state.  [mu] guards the out_channel and the in-flight
   count; the reader thread closes the socket only once every admitted
   request has been answered, so a client that half-closes its write
   side still receives every response. *)
type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  cmu : Mutex.t;
  drained : Condition.t;
  mutable inflight : int;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Batch.build_cache;
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  started_ms : float;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : pending_req Queue.t;
  mutable stopping : bool;
  mutable connections : int;  (* lifetime accepted *)
  mutable open_fds : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable dispatch_thread : Thread.t option;
  mutable solve_ms : float;  (* summed batch wall clocks *)
  mutable batches : int;
  mutable stopped_summary : Telemetry.json option;
}

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
(* Dispatcher: drain whatever is queued (up to max_batch) into one
   Batch.run on the pool; admission order is batch order, so each
   connection's responses come back in its request order.  Runs until
   told to stop AND the queue is dry — shutdown drains in-flight work,
   it never drops an admitted request. *)

let dispatch_loop t =
  let rec go () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* stopping, drained *)
    else begin
      let n = min t.cfg.max_batch (Queue.length t.queue) in
      (* Drain in admission order — batch order is response order. *)
      let rev = ref [] in
      for _ = 1 to n do
        rev := Queue.pop t.queue :: !rev
      done;
      let pendings = List.rev !rev in
      Mutex.unlock t.mu;
      (match t.cfg.before_batch with Some f -> f () | None -> ());
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
          try p.reply r with _ -> ())
        pendings batch.Batch.responses;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Connections.                                                        *)

let send_response t (c : conn) r =
  Mutex.lock c.cmu;
  (try
     output_string c.oc (Protocol.response_line ~timing:t.cfg.timing r);
     flush c.oc
   with Sys_error _ -> () (* client went away; the result is dropped *));
  Mutex.unlock c.cmu

let handle_conn t fd =
  let c =
    {
      fd;
      oc = Unix.out_channel_of_descr fd;
      cmu = Mutex.create ();
      drained = Condition.create ();
      inflight = 0;
    }
  in
  let ic = Unix.in_channel_of_descr fd in
  let reply r =
    send_response t c r;
    Mutex.lock c.cmu;
    c.inflight <- c.inflight - 1;
    if c.inflight = 0 then Condition.broadcast c.drained;
    Mutex.unlock c.cmu
  in
  let admit req =
    let now = Budget.now_ms () in
    Mutex.lock t.mu;
    let verdict =
      if t.stopping then Error "overloaded: server shutting down"
      else if Queue.length t.queue >= t.cfg.max_queue then
        Error
          (Printf.sprintf "overloaded: admission queue full (%d queued, max %d)"
             (Queue.length t.queue) t.cfg.max_queue)
      else begin
        Mutex.lock c.cmu;
        c.inflight <- c.inflight + 1;
        Mutex.unlock c.cmu;
        Queue.push { preq = req; admitted_ms = now; reply } t.queue;
        Condition.signal t.nonempty;
        Ok ()
      end
    in
    Mutex.unlock t.mu;
    match verdict with
    | Ok () -> Metrics.admit t.metrics
    | Error msg ->
        (* Load shedding is an answer, not a dropped connection: the
           client gets a structured error result for this id. *)
        Metrics.shed t.metrics;
        send_response t c (Batch.error_response ~id:req.Batch.id msg)
  in
  let rec loop k =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop k
    | line ->
        (match
           Protocol.parse_line ?max_table_bytes:t.cfg.max_table_bytes
             ?cache_dir:t.cfg.cache_dir ?oracle:t.cfg.oracle
             ~fallback_id:(Printf.sprintf "#%d" k)
             line
         with
        | Protocol.Malformed { id; error } ->
            send_response t c (Batch.error_response ~id ("bad request: " ^ error))
        | Protocol.Request req -> admit req);
        loop (k + 1)
  in
  loop 0;
  (* Reader done (client half-closed or vanished): answer what is still
     in flight before closing the socket. *)
  Mutex.lock c.cmu;
  while c.inflight > 0 do
    Condition.wait c.drained c.cmu
  done;
  Mutex.unlock c.cmu;
  (try close_out c.oc with Sys_error _ -> ());
  Mutex.lock t.mu;
  t.open_fds <- List.filter (fun f -> f != fd) t.open_fds;
  Mutex.unlock t.mu

(* Accept via select with a short tick so [stop] can interrupt the loop
   portably (closing an fd does not wake a blocked accept on Linux). *)
let accept_loop t =
  let rec go () =
    if t.stopping then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              Mutex.lock t.mu;
              if t.stopping then begin
                Mutex.unlock t.mu;
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                t.connections <- t.connections + 1;
                t.open_fds <- fd :: t.open_fds;
                let th = Thread.create (fun () -> handle_conn t fd) () in
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

let address t = Unix.getsockname t.listen_fd

let start cfg =
  (* A client disconnecting mid-write must surface as an exception on
     that write, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_listen cfg.listen in
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
      queue = Queue.create ();
      stopping = false;
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
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  let already =
    Mutex.lock t.mu;
    let was = t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mu;
    was
  in
  if not already then begin
    (* 1. Stop accepting. *)
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.listen with
    | `Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Tcp _ -> ());
    (* 2. Force EOF on idle readers; admitted requests stay in flight —
       each connection closes only after its responses are written. *)
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
    (* 3. Drain: the dispatcher exits once the queue is dry. *)
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
  let previous =
    if handle_signals then
      List.map
        (fun s ->
          (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))))
        [ Sys.sigint; Sys.sigterm ]
    else []
  in
  let t = start cfg in
  while not (Atomic.get stop_requested) do
    Thread.delay 0.05
  done;
  stop t;
  List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) previous;
  summary (summary_json t)

let request_stop () = Atomic.set stop_requested true
