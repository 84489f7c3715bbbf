(** The interval-cost oracle — the abstraction every optimizer targets.

    For all three of the paper's cost models (Switch, DAG, General with
    explicit H) the following holds: once the hyperreconfiguration
    points of a task are fixed, the optimal hypercontext of the block
    of steps [lo..hi] is determined (switch model: the union of the
    block's requirements; DAG/General: a cheapest hypercontext
    satisfying every requirement of the block), and the resulting
    per-step ordinary-reconfiguration cost depends only on [(task, lo,
    hi)].  An oracle packages those per-block costs together with the
    partial-hyperreconfiguration costs [v_j], so that breakpoint-space
    optimizers (exact DP, GA, annealing, greedy, brute force) are
    written once and work for every model.

    [step_cost j lo hi] must be
    {ul
    {- monotone: non-increasing in [lo] and non-decreasing in [hi]
       (shrinking a block can only shrink its minimal hypercontext);}
    {- non-negative.}}
    Constructors in this library guarantee both.

    The dense table lives out of the OCaml heap in one {!Flat_table.t}
    (Bigarray storage, element width chosen from the largest cell):
    zero-copy shareable across {!Hr_util.Pool} domains, invisible to
    the GC, lock-free O(1) reads.  It holds only the cells with
    [lo <= hi]: m·n(n+1)/2 of them, task by task and row by row.  A
    {!Table_cache.t} persists it across processes: {!store} writes a
    built table under a caller's key and {!of_cache} maps it back.
    [Hr_check.Case.problem] is the one caller that does both, under
    [Hr_check.Case.oracle_key]. *)

(** How (and whether) the oracle caches [step_cost] queries — carried
    by the oracle so the solver telemetry can report cache behavior. *)
type cache

(** Which rung of the oracle ladder {!of_task_set} builds:
    {ul
    {- [Dense] — always the O(1) precomputed table, whatever the size;}
    {- [Sparse] — always the {!Occ_index} occurrence index: O(S log σ)
       queries, memory linear in the compressed trace, no n² anywhere;}
    {- [Auto] (the default) — dense while the projected table fits the
       byte budget, sparse above it.}} *)
type policy = Dense | Sparse | Auto

(** Command-line spelling of {!policy} — [("dense", Dense); ("sparse",
    Sparse); ("auto", Auto)], for {!Hr_util.Cli.enum}. *)
val policy_enum : (string * policy) list

type t = {
  m : int;  (** number of tasks *)
  n : int;  (** number of synchronized machine steps *)
  v : int array;  (** [v.(j)]: partial hyperreconfiguration cost of task j *)
  step_cost : int -> int -> int -> int;
      (** [step_cost j lo hi]: per-step reconfiguration cost of task [j]
          while its current hypercontext covers steps [lo..hi]. *)
  cache : cache;
}

(** A telemetry snapshot of the oracle's cache.  [kind] is ["direct"]
    (no cache), ["dense"] ([cells] = the m·n(n+1)/2 precomputed table
    cells; lookups are uncounted array reads) or ["sparse"] (the
    {!Occ_index} occurrence index; [queries] counts [step_cost] calls,
    [cells] the stored occurrence-list entries, [segments] the
    compressed trace length summed over tasks).

    The build-parallelism fields describe how a dense table was
    materialized: [build_ms] is the wall-clock time of the whole build,
    [build_workers] the number of domains that participated (pool
    workers plus the calling domain; 1 for a sequential build), and
    [build_seq_ms] the sequential-equivalent build time (the summed
    per-chunk wall clocks — what one domain would have paid), so
    [build_seq_ms /. build_ms] is the measured build speedup.  For
    sequential builds [build_seq_ms = build_ms]; a direct oracle
    reports the idle defaults (workers 1, 0 ms).

    The memory fields report residency: [width_bits] is the dense
    element width from the {!Flat_table} ladder (16/32/64; 64 for the
    sparse index, 0 for ["direct"]), [bytes_resident] the bytes held now
    ([cells · width_bits / 8] for ["dense"]), and [bytes_peak] the
    cache's ceiling (equal to resident for both built rungs).  [source]
    says where a dense table came from: ["built"] (computed this
    process) or ["mmap"] (mapped from a {!Table_cache} file — a warm
    load performs no oracle calls); [""] for the other rungs. *)
type cache_stats = {
  kind : string;
  queries : int;
  cells : int;
  segments : int;
  build_ms : float;
  build_workers : int;
  build_seq_ms : float;
  width_bits : int;
  bytes_resident : int;
  bytes_peak : int;
  source : string;
}

(** [cache_stats t] — counters are cumulative over the oracle's
    lifetime and safe to read while other domains query it. *)
val cache_stats : t -> cache_stats

(** [of_task_set ?pool ?policy ?max_bytes ts] is the MT-Switch oracle:
    [step_cost j lo hi = |U_j(lo,hi)|].

    Under the dense rung (the [Auto] default while the projected table
    fits [max_bytes], or forced with [Dense]) it builds the one dense
    table: m·n(n+1)/2 cells, filled by a prefix-union sweep per
    (task, lo) row.  The rows build in parallel on [pool]; without
    [pool], tables of at least 2¹⁵ cells build on the shared
    {!Hr_util.Pool.default} and smaller ones stay sequential.  The
    table is elementwise identical either way.  The oracle arrives
    dense, so {!precompute} leaves it as it is.

    Under the sparse rung ([Sparse], or [Auto] above the budget) it
    builds one {!Occ_index} per task instead: O(n + requirement
    entries) build, memory linear in the run-length-compressed trace,
    O(S log σ) queries — elementwise identical to the dense table
    (property-tested), just slower per query.  This is what makes
    10⁵-step traces feasible: their dense table would need > 10 GiB.
    [pool] is unused on this rung.  Sparse oracles are never densified
    by {!precompute} (solvers query them through [step_cost] as-is).

    [max_bytes] (default {!default_max_bytes}) budgets the projected
    dense footprint, {!projected_dense_bytes}[ ~bound:0]: m·n(n+1)
    bytes at the cheapest (16-bit) element width. *)
val of_task_set :
  ?pool:Hr_util.Pool.t -> ?policy:policy -> ?max_bytes:int -> Task_set.t -> t

(** [of_single ?pool ?policy ?max_bytes ~v trace] is the single-task
    switch oracle. *)
val of_single :
  ?pool:Hr_util.Pool.t -> ?policy:policy -> ?max_bytes:int -> v:int -> Trace.t -> t

(** [make ~m ~n ~v ~step_cost] builds a custom oracle (used by the DAG
    and General models). *)
val make : m:int -> n:int -> v:int array -> step_cost:(int -> int -> int -> int) -> t

(** [of_weighted ~v ~weights ts] is the dense oracle of a weighted
    switch model: the same sweep as {!of_task_set}'s dense rung, but
    each cell sums [weights.(j).(x)] over the block union of task [j]
    instead of counting it.  Always dense, whatever the size (there is
    no sparse weighted rung, so no byte budget applies).  {!Weighted}
    validates the weights. *)
val of_weighted : v:int array -> weights:int array array -> Task_set.t -> t

(** [projected_dense_bytes ~bound ~m ~n] is the bytes of the dense
    table of [m] tasks over [n] steps whose largest cell is [bound]:
    m·n(n+1)/2 cells at the {!Flat_table} width that holds [bound].
    At [~bound:0] it is m·n(n+1), the cheapest (16-bit) footprint —
    the figure {!of_task_set}'s [Auto] policy compares against its
    [max_bytes].  {!precompute} compares it at {!value_bound}. *)
val projected_dense_bytes : bound:int -> m:int -> n:int -> int

(** The default [max_bytes] of {!precompute}: 128 MiB, the same ceiling
    the previous 16M-cell ([int array]) default imposed, but now
    width-aware — a 16-bit table fits 4x the cells in the same
    budget. *)
val default_max_bytes : int

(** [value_bound t] is an upper bound on every [step_cost] cell — by
    interval monotonicity the largest cell of task [j] is the
    full-interval cost, so the bound costs [m] oracle calls.  It picks
    the {!Flat_table} element width before a dense build. *)
val value_bound : t -> int

(** [precompute ?max_bytes ?pool t] materializes every
    [step_cost j lo hi] with [lo <= hi] into the dense table, in
    O(m·n²) oracle calls — the same layout and build routine as
    {!of_task_set}'s dense rung.  Queries become lock-free O(1) reads of
    out-of-heap storage, safe to share across domains (used by
    {!Solver.race} and the parallel metaheuristics); a query outside
    the triangle [0 <= lo <= hi < n] raises [Invalid_argument].  The
    element width (16/32/64 bits) is picked from {!value_bound}; a
    custom oracle that violates the documented monotonicity trips the
    checked writes and transparently rebuilds at full width.  The build
    runs on [pool] as in {!of_task_set}, and records wall and
    sequential-equivalent times and the worker count in
    {!cache_stats}.

    When the table would exceed [max_bytes] (default
    {!default_max_bytes}) the oracle stays direct.

    Free on a dense or sparse oracle — {!Problem.make} calls it once
    per instance and every registered solver then shares the same
    table. *)
val precompute : ?max_bytes:int -> ?pool:Hr_util.Pool.t -> t -> t

(** [store cache ~key t] writes [t]'s dense table to the persistent
    store under [key] when this process built it.  An oracle without a
    table (direct, sparse) or with a table mapped from a cache writes
    nothing.  The caller asserts that [key] captures every input of
    the table, as [Hr_check.Case.oracle_key] does. *)
val store : Table_cache.t -> key:string -> t -> unit

(** [of_cache cache ~key ~m ~n ~v] constructs a dense oracle directly
    from a persistent table, skipping the input-side construction
    entirely (for the switch model {!of_task_set} is O(m·n²) — the warm
    path must not pay it).  [None] on any cache miss; on a hit the
    oracle's [step_cost] reads the mapped table.  The caller asserts
    that [key] was computed from the same inputs that determine [m],
    [n] and [v] — e.g. [Hr_check.Case.oracle_key] derives all four from
    the case spec. *)
val of_cache :
  Table_cache.t -> key:string -> m:int -> n:int -> v:int array -> t option

(** [full_cost t j] is [step_cost t j 0 (n-1)]: the per-step cost of the
    never-hyperreconfigure hypercontext of task [j]. *)
val full_cost : t -> int -> int
