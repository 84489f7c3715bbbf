(** The batched solve service: one serving core, two transports.

    Each connection has a reader thread that parses request lines
    ({!Protocol}) into one bounded admission queue.  A single dispatcher
    runs the whole queue as one {!Hr_core.Batch.run} on the persistent
    domain {!Hr_util.Pool}, with a shared byte-budgeted LRU oracle
    cache, and one {!Metrics} instance counts every line.

    - {b Sockets} ([`Unix_path], [`Tcp]): an accept thread hands each
      client its own connection.  Overload is answered, never dropped:
      past [max_queue] queued requests, admission returns a structured
      [hyperreconf.result/1] error whose message starts with
      ["overloaded: "].
    - {b stdio} ([`Stdio (input, output)]): exactly one connection over
      the two descriptors, which stay the caller's.  No accept thread
      and no signal handlers; a full queue makes the reader wait for
      room (backpressure), so this transport never sheds.

    Each connection answers in input order: every admitted request and
    every malformed line takes the next place in its reply sequence,
    and replies are written as the head of the sequence fills.  Only
    overloaded replies are written at once, out of sequence.  A failed
    write ends the connection: later replies are dropped and its reader
    stops.  Shutdown drains — every admitted request is solved and its
    reply written before the connection ends, and the summary is
    snapshotted before the pool is torn down. *)

(** Where to serve. *)
type listen =
  [ `Unix_path of string | `Tcp of string * int | `Stdio of Unix.file_descr * Unix.file_descr ]

(** ["unix:PATH"], ["tcp:HOST:PORT"] or ["stdio"]. *)
val listen_to_string : listen -> string

(** [listen_of_string s] parses ["unix:PATH"], ["tcp:HOST:PORT"]
    (empty or ["*"] host means any interface), or a bare path
    containing ['/'] as a Unix socket path. *)
val listen_of_string : string -> (listen, string) result

type config = {
  listen : listen;
  workers : int option;  (** pool size; default = available cores *)
  deadline_ms : int option;  (** global budget per dispatched batch *)
  max_queue : int;
      (** admission bound, and so the largest batch; beyond it sockets
          shed and stdio waits *)
  seed : int;
  solvers : Hr_core.Problem.t -> Hr_core.Solver.t list;
  max_lru_bytes : int option;  (** oracle LRU byte budget; None = unbounded *)
  max_table_bytes : int option;
      (** per-problem dense-table cap; the [Auto] oracle rung switches to
          the sparse index above it *)
  cache_dir : string option;  (** persistent on-disk table cache *)
  timing : bool;  (** false zeroes wall_ms in responses (determinism) *)
  before_batch : (unit -> unit) option;
      (** test hook, called by the dispatcher before each [Batch.run];
          blocking it holds the queue so load shedding and
          backpressure are deterministic *)
}

val config :
  ?workers:int ->
  ?deadline_ms:int ->
  ?max_queue:int ->
  ?seed:int ->
  ?solvers:(Hr_core.Problem.t -> Hr_core.Solver.t list) ->
  ?max_lru_bytes:int ->
  ?max_table_bytes:int ->
  ?cache_dir:string ->
  ?timing:bool ->
  ?before_batch:(unit -> unit) ->
  listen ->
  config
(** Defaults: [max_queue = 64], [seed = Solver.default_seed],
    [solvers = Solver_registry.applicable], unbounded LRU, timing on. *)

type t

(** [start cfg] binds the listen address and launches the dispatcher
    and the accept thread — or, on stdio, the one connection's reader.
    Ignores [SIGPIPE].  Raises [Failure] if the address cannot be bound
    (e.g. the Unix path exists and is not a socket). *)
val start : config -> t

(** The bound address — useful with [`Tcp (_, 0)] to learn the port.
    Raises [Invalid_argument] on the stdio transport. *)
val address : t -> Unix.sockaddr

(** [stop t] shuts down gracefully: stops accepting, forces EOF on
    idle socket connections, waits for every connection to be answered
    and closed — the stdio connection reads on to its own EOF — drains
    the dispatcher, snapshots the summary, and only then shuts the pool
    down.  Idempotent. *)
val stop : t -> unit

val summary_schema_version : string

(** The [hyperreconf.serve/1] summary: admission/latency/cache
    statistics.  Every non-blank line read counts once in [admitted],
    [shed] or [malformed].  Live snapshot while running; after {!stop},
    the snapshot taken at shutdown. *)
val summary_json : t -> Hr_core.Telemetry.json

(** [run cfg ~summary] starts a server, blocks until it should stop,
    then stops gracefully and hands the final summary document to
    [summary].  A socket server stops on {!request_stop} or (by
    default) [SIGINT]/[SIGTERM]; a stdio server stops at the input's
    EOF, once every reply is written, and installs no signal
    handlers. *)
val run :
  ?handle_signals:bool -> config -> summary:(Hr_core.Telemetry.json -> unit) -> unit

(** Ask a blocking socket {!run} to shut down (signal-handler safe). *)
val request_stop : unit -> unit
