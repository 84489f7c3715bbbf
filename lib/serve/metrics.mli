(** Per-request serving metrics: admission/shedding counters and the
    latency sample the summary's p50/p95/p99 are computed from.
    Thread-safe — connection threads, the dispatcher and the summary
    writer share one instance. *)

type t

val create : unit -> t

(** [admit t] — a request entered the solve queue. *)
val admit : t -> unit

(** [shed t] — a request was refused at admission (structured
    [overloaded] response, counted separately from solve errors). *)
val shed : t -> unit

(** [complete t ~latency_ms r] records a finished request:
    [latency_ms] is admission-to-response (queue wait included), and
    [r]'s outcome feeds the error / cut-off counters. *)
val complete : t -> latency_ms:float -> Hr_core.Batch.response -> unit

(** [latencies t] — the recorded samples in arrival order. *)
val latencies : t -> float array

(** A consistent copy of every counter plus the latency samples. *)
type snapshot = {
  admitted : int;
  shed : int;
  completed : int;
  errors : int;
  cut_off : int;
  samples : float array;
}

val snapshot : t -> snapshot
