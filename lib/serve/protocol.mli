(** The JSON-lines wire format of {!Server}, on both of its transports
    (stdio and sockets) — one parser and one serializer, so the two
    transports answer byte-identically.

    A request line is either a bare [hyperreconf.case/1] document or an
    envelope [{"id": ..., "deadline_ms": MS, "case": {...}}]; the
    response is one [hyperreconf.result/1] line ({!Hr_core.Batch}). *)

(** One parsed request line.  [Malformed] lines never reach the solve
    pipeline: the transport answers them directly with a structured
    error result. *)
type parsed =
  | Request of Hr_core.Batch.request
  | Malformed of { id : string; error : string }

(** [parse_line ?max_table_bytes ?cache_dir ~fallback_id line] parses
    one request line.  The request is keyed by the digest of the
    canonical case JSON (the cross-batch dedup/LRU key), builds its
    problem through [Hr_check.Case.problem] with the given table-cache
    knobs (the oracle rung is [Auto] under [max_table_bytes]), and —
    when the envelope carries [deadline_ms] — gets a per-request budget
    that starts ticking now, as the line is read, so the wait for
    admission and in the queue counts against it.  [fallback_id] is
    used when the envelope does not choose an id. *)
val parse_line :
  ?max_table_bytes:int -> ?cache_dir:string -> fallback_id:string -> string -> parsed

(** [response_line ?timing r] is the one-line [hyperreconf.result/1]
    rendering (trailing newline included).  [timing:false] zeroes the
    wall-clock fields ({!Hr_core.Batch.response_to_json}). *)
val response_line : ?timing:bool -> Hr_core.Batch.response -> string
