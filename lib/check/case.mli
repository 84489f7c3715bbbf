(** Serializable conformance-test cases.

    A [Case.t] is a plain-data description of one point of the paper's
    problem family — cost model (switch / weighted-switch / DAG),
    {!Hr_core.Sync_cost.params}, synchronization mode and machine
    class — from which a fresh {!Hr_core.Problem.t} can be built at any
    time.  Unlike [Problem.t] (which holds closures and precomputed
    tables) a case is pure data: the generator produces it, the
    shrinker edits it, and the corpus stores it as JSON
    (schema {!schema_version}) so failing instances replay across
    sessions. *)

(** Which oracle constructor the case exercises.

    - [Switch]: {!Hr_core.Interval_cost.of_task_set} on a task set
      built from [reqs.(j)] (per step, the required switch indices of
      task [j] over a local space of [widths.(j)] switches) with
      explicit hyperreconfiguration costs [vs].
    - [Weighted]: {!Hr_core.Weighted.oracle} with per-switch positive
      [weights] (the task's [v_j] is its total local weight).
    - [Dag]: a single-task chain DAG ({!Hr_core.Dag_model.chain}) of
      [Array.length costs] hypercontexts, node [k] satisfying context
      ids [0 .. sat_sizes.(k) - 1] (strictly increasing, last
      [= num_contexts]), evaluated on the context-id sequence [seq]. *)
type oracle_spec =
  | Switch of { widths : int array; vs : int array; reqs : int list list array }
  | Weighted of {
      widths : int array;
      reqs : int list list array;
      weights : int array array;
    }
  | Dag of {
      num_contexts : int;
      w : int;
      costs : int array;
      sat_sizes : int array;
      seq : int array;
    }

type t = {
  spec : oracle_spec;
  params : Hr_core.Sync_cost.params;
  mode : Hr_core.Mixed_sync.mode;
  machine_class : Hr_core.Problem.machine_class;
  place : Hr_place.Fabric.t option;
      (** when present, {!problem} attaches the fabric
          ({!Hr_place.Joint.attach}) so the instance carries the joint
          placement objective.  Serialized as the additive optional
          ["fabric"] JSON field — plain cases keep the exact schema-/1
          byte format. *)
}

(** ["hyperreconf.case/1"] — bump on breaking format changes. *)
val schema_version : string

val m : t -> int
val n : t -> int

(** [problem ?max_table_bytes ?cache_dir ?oracle t] builds the instance
    (precomputed oracle).  It is the one path from a case to a
    {!Hr_core.Problem.t}, and the only code that reads or writes the
    persistent {!Hr_core.Table_cache}.

    [max_table_bytes] caps the dense-table memory: over it a switch
    case gets the sparse index under the [Auto] policy and a DAG oracle
    stays direct ({!Hr_core.Problem.make}'s [max_bytes]); a weighted
    table has no sparse form and is always built.

    With [cache_dir], a case whose build at that cap ends dense looks
    its table up under {!oracle_key} first.  A hit maps the stored
    table and skips even the oracle construction, so a warm build
    performs no O(m·n²) work; a miss builds and stores the table.  A
    case whose build at the cap would not be dense skips the lookup,
    so the cap bounds mapped tables as it bounds built ones.

    [oracle] picks the rung of the oracle ladder for switch-model
    cases ({!Hr_core.Interval_cost.policy}; default [Auto]); forcing
    [Sparse] bypasses the table cache entirely (an
    {!Hr_core.Occ_index} rebuilds in O(input), and is never
    densified).  Weighted and DAG cases build their own oracles and
    otherwise ignore the policy.  Raises [Invalid_argument] on an
    inconsistent case — {!of_string} validates enough that loaded
    corpus cases never do. *)
val problem :
  ?max_table_bytes:int ->
  ?cache_dir:string ->
  ?oracle:Hr_core.Interval_cost.policy ->
  t ->
  Hr_core.Problem.t

(** [oracle_key t] is the persistent-cache key: a hex digest of the
    canonical oracle-spec JSON (the dense tables are a function of the
    oracle inputs only, so cases differing in params/mode/class share
    an entry). *)
val oracle_key : t -> string

(** [summary t] is a one-line description (model, m, n, class, mode,
    params) for failure reports and tables. *)
val summary : t -> string

val to_json : t -> Hr_core.Telemetry.json
val of_json : Hr_core.Telemetry.json -> (t, string) result

(** [to_string] / [of_string] — the JSON corpus format. *)
val to_string : t -> string

val of_string : string -> (t, string) result
