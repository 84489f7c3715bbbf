(** Long-lived concurrent socket front-end for the batched solver.

    One process serves many JSON-lines clients over a Unix-domain or
    TCP socket: per-connection reader threads feed a bounded global
    admission queue; a single dispatcher micro-batches queued requests
    onto the persistent domain {!Hr_util.Pool} via {!Hr_core.Batch.run}
    with a shared byte-budgeted LRU oracle cache.

    Overload is answered, never dropped: past [max_queue] queued
    requests, admission returns a structured [hyperreconf.result/1]
    error whose message starts with ["overloaded: "].  Shutdown drains —
    every admitted request is solved and written back before sockets
    close, and the summary is snapshotted before the pool is torn
    down. *)

(** Where to listen. *)
type listen = [ `Unix_path of string | `Tcp of string * int ]

val listen_to_string : listen -> string

(** [listen_of_string s] parses ["unix:PATH"], ["tcp:HOST:PORT"]
    (empty or ["*"] host means any interface), or a bare path
    containing ['/'] as a Unix socket path. *)
val listen_of_string : string -> (listen, string) result

type config = {
  listen : listen;
  workers : int option;  (** pool size; default = available cores *)
  deadline_ms : int option;  (** global budget per dispatched batch *)
  max_queue : int;  (** admission bound; beyond it requests are shed *)
  max_batch : int;  (** max requests drained into one [Batch.run] *)
  seed : int;
  solvers : Hr_core.Problem.t -> Hr_core.Solver.t list;
  max_lru_bytes : int option;  (** oracle LRU byte budget; None = unbounded *)
  max_table_bytes : int option;  (** per-problem dense-table cap *)
  cache_dir : string option;  (** persistent on-disk table cache *)
  oracle : Hr_core.Interval_cost.policy option;
      (** oracle ladder rung for switch-model cases; None = Auto *)
  timing : bool;  (** false zeroes wall_ms in responses (determinism) *)
  before_batch : (unit -> unit) option;
      (** test hook, called by the dispatcher before each [Batch.run];
          blocking it holds the queue so load-shedding is
          deterministic *)
}

val config :
  ?workers:int ->
  ?deadline_ms:int ->
  ?max_queue:int ->
  ?max_batch:int ->
  ?seed:int ->
  ?solvers:(Hr_core.Problem.t -> Hr_core.Solver.t list) ->
  ?max_lru_bytes:int ->
  ?max_table_bytes:int ->
  ?cache_dir:string ->
  ?oracle:Hr_core.Interval_cost.policy ->
  ?timing:bool ->
  ?before_batch:(unit -> unit) ->
  listen ->
  config
(** Defaults: [max_queue = 64], [max_batch = max_queue],
    [seed = Solver.default_seed], [solvers = Solver_registry.applicable],
    unbounded LRU, timing on. *)

type t

(** [start cfg] binds the listen address and launches the accept and
    dispatcher threads.  Ignores [SIGPIPE].
    Raises [Failure] if the address cannot be bound (e.g. the Unix path
    exists and is not a socket). *)
val start : config -> t

(** The bound address — useful with [`Tcp (_, 0)] to learn the port. *)
val address : t -> Unix.sockaddr

(** [stop t] shuts down gracefully: stops accepting, forces EOF on
    idle connections, waits for every connection to be answered and
    closed, drains the dispatcher, snapshots the summary, and only then
    shuts the pool down.  Idempotent. *)
val stop : t -> unit

val summary_schema_version : string

(** The [hyperreconf.serve/1] summary: admission/latency/cache
    statistics.  Live snapshot while running; after {!stop}, the
    snapshot taken at shutdown. *)
val summary_json : t -> Hr_core.Telemetry.json

(** [run cfg ~summary] starts a server and blocks until {!request_stop}
    or (by default) [SIGINT]/[SIGTERM]; then stops gracefully and hands
    the final summary document to [summary]. *)
val run :
  ?handle_signals:bool -> config -> summary:(Hr_core.Telemetry.json -> unit) -> unit

(** Ask a blocking {!run} to shut down (signal-handler safe). *)
val request_stop : unit -> unit
