(** Structured telemetry for solver executions.

    One {!t} describes one optimization run — a race, a portfolio, or a
    single solve: the instance, the seed and deadline, one
    {!Solver.report} per contestant (wall-clock, outcome, cost,
    iteration counters), the oracle-cache statistics
    ({!Interval_cost.cache_stats}: dense table cells and build times,
    or sparse index queries), and the winner.  It serializes to a stable
    JSON document (schema {!schema_version}) consumed by the CI smoke
    test and external dashboards, and pretty-prints as a table for
    humans.

    JSON schema (see [docs/solvers.md] for the field-by-field
    contract):

    {v
    { "schema": "hyperreconf.telemetry/1",
      "label": "race", "seed": 2004, "deadline_ms": 200 | null,
      "instance": { "m": 4, "n": 96, "summary": "m=4 n=96 partial ..." },
      "total_ms": 87.2,
      "oracle_cache": { "kind": "dense" | "sparse" | "direct",
                        "queries": 0, "cells": 18624, "segments": 0,
                        "build_ms": 0.2, "build_workers": 1,
                        "build_seq_ms": 0.2, "build_speedup": null | 2.6,
                        "width_bits": 16, "bytes_resident": 37248,
                        "bytes_peak": 37248,
                        "source": "built" | "mmap" | null },
      "solvers": [ { "name": "ga", "kind": "stochastic",
                     "outcome": "finished" | "cut-off" | "crashed",
                     "wall_ms": 81.0,
                     "error": "...",            (* crashed only *)
                     "cost": 1234, "exact": false, "cut_off": true,
                     "iterations": 4096 | null,
                     "stats": { "evaluations": "4096", ... } } ],
      "winner": "mt-dp" | null }
    v} *)

(** A minimal JSON document — just enough for the telemetry schema; no
    external dependency. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(** [json_to_string j] — compact one-line rendering with a trailing
    newline; strings are escaped per RFC 8259. *)
val json_to_string : json -> string

(** [json_of_string s] parses a JSON document — the inverse of
    {!json_to_string} (numbers without [./e/E] load as [Int], others as
    [Float]; [\u] escapes decode to UTF-8).  Used to read telemetry
    dumps and conformance-corpus cases back; never raises.  A document
    nested deeper than {!max_json_depth} arrays and objects is an
    [Error] naming the limit. *)
val json_of_string : string -> (json, string) result

(** The deepest array/object nesting {!json_of_string} accepts: 512. *)
val max_json_depth : int

type t = {
  label : string;  (** e.g. ["race"], ["portfolio"], a solver name *)
  problem : string;  (** {!Problem.pp} of the instance *)
  m : int;
  n : int;
  seed : int;
  deadline_ms : int option;  (** the --deadline-ms knob, when set *)
  total_ms : float;  (** end-to-end wall clock of the whole run *)
  oracle : Interval_cost.cache_stats;
  reports : Solver.report list;
  winner : string option;  (** best surviving solver, [None] if all crashed *)
  ext : (string * (string * string) list) option;
      (** extension tag + counters of an extended instance (e.g.
          placement relocation statistics); [None] on plain problems —
          the JSON document then carries no ["extension"] field, so
          plain-problem output is byte-identical to before *)
}

(** ["hyperreconf.telemetry/1"] — bump on breaking schema changes. *)
val schema_version : string

(** [latency_summary samples] is the per-request latency digest used by
    the serving summaries: [{count; mean_ms; p50_ms; p95_ms; p99_ms;
    max_ms}] (percentiles via {!Hr_util.Stats.percentile}).  An empty
    sample — an idle server — reports [count = 0] and null statistics
    instead of raising. *)
val latency_summary : float array -> json

(** [table_cache_summary cache_dir] is the serving summaries'
    persistent-cache object: [{dir; hits; misses; stores; invalid;
    errors}] from {!Table_cache.stats} of [cache_dir]'s handle, or null
    without a cache directory. *)
val table_cache_summary : string option -> json

(** [iterations sol] extracts the backend's work counter from
    [sol.stats]: the first of ["evaluations"], ["states"], ["rounds"]
    that parses as an integer. *)
val iterations : Solution.t -> int option

(** [make ?label ?deadline_ms ?seed ~problem ~total_ms reports]
    assembles a record; the winner is recomputed from the surviving
    reports with {!Solution.best}. *)
val make :
  ?label:string ->
  ?deadline_ms:int ->
  ?seed:int ->
  problem:Problem.t ->
  total_ms:float ->
  Solver.report list ->
  t

val to_json : t -> json

val to_string : t -> string

(** [save path t] writes {!to_string} to [path] (truncating). *)
val save : string -> t -> unit

(** [pp] prints the human-facing view: a summary line, the oracle-cache
    line, the per-solver table, and the winner. *)
val pp : Format.formatter -> t -> unit
