(** Per-request serving metrics: admission/shedding counters and the
    latency sample the summary's p50/p95/p99 are computed from.
    Thread-safe — connection threads, the dispatcher and the summary
    writer share one instance.

    Every non-blank request line is counted exactly once, in
    [admitted], [shed] or [malformed]; once the server has drained,
    [completed = admitted]. *)

type t

val create : unit -> t

(** [admit t] — a request entered the solve queue. *)
val admit : t -> unit

(** [shed t] — a request was refused at admission (structured
    [overloaded] response, counted separately from solve errors). *)
val shed : t -> unit

(** [malformed t] — a line did not parse into a request (structured
    [bad request] response; it never reaches the solve queue). *)
val malformed : t -> unit

(** [complete t ~latency_ms r] records a finished request:
    [latency_ms] is admission-to-response (queue wait included), and
    [r]'s outcome feeds the error / cut-off counters. *)
val complete : t -> latency_ms:float -> Hr_core.Batch.response -> unit

(** A consistent copy of every counter plus the latency samples, in
    completion order. *)
type snapshot = {
  admitted : int;
  shed : int;
  malformed : int;
  completed : int;
  errors : int;
  cut_off : int;
  samples : float array;
}

val snapshot : t -> snapshot
