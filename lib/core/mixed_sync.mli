(** Cost evaluation for all four synchronization modes of §3.

    {!Sync_cost} implements the fully synchronized machine and
    {!Mt_async} the non-synchronized one; this module completes the
    §3 taxonomy with the two intermediate modes and puts all four
    behind one evaluator.  With reconfigurations modelled as one
    machine step each:

    - {b fully synchronized}: both operations barrier —
      Σ_i (H_i + R_i), the §4.2 formula (equals {!Sync_cost.eval});
    - {b hypercontext synchronized}: partial hyperreconfigurations
      barrier (no task computes during one), reconfigurations overlap —
      the hyperreconfiguration term stays a per-step combination while
      each task accumulates its own reconfiguration time:
      Σ_i H_i + max_j Σ_i r_{j,i};
    - {b context synchronized}: reconfigurations barrier while partial
      hyperreconfigurations overlap:
      max_j Σ_{breaks of j} v_j + Σ_i R_i;
    - {b non-synchronized}: both overlap — the §4.1 General Multi Task
      formula, max_j (Σ_{breaks} v_j + Σ_i r_{j,i}) (equals
      {!Mt_async.eval}).

    All four agree for m = 1, and the modes are ordered:
    non-synchronized ≤ each intermediate ≤ fully synchronized
    (more barriers never overlap less work) — properties the test suite
    checks. *)

type mode =
  | Fully_synchronized
  | Hypercontext_synchronized
  | Context_synchronized
  | Non_synchronized

(** [eval ~mode ?pub oracle bp] is the total (hyper)reconfiguration
    time of plan [bp] under [mode], task-parallel uploads.  [pub]
    (public-global per-step cost) contributes to the reconfiguration
    term only in the context-synchronized and fully synchronized modes
    (public resources require context synchronization, §3) — passing
    [pub > 0] with an unsynchronized mode raises [Invalid_argument]. *)
val eval : mode:mode -> ?pub:int -> Interval_cost.t -> Breakpoints.t -> int

(** [pp_mode] prints the mode name. *)
val pp_mode : Format.formatter -> mode -> unit
