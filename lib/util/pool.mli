(** A persistent domain worker pool.

    {!Par} (and through it every {!Hr_core} solver race) used to pay a
    [Domain.spawn] per call — fine for one optimization, hostile to a
    serving loop that solves thousands of instances per second.  A
    [Pool.t] spawns its worker domains {e once}; afterwards every
    parallel map costs only queue operations.

    {b Determinism.}  [map] is elementwise identical to the sequential
    [Array.map], whatever the worker count, chunking or scheduling:
    chunks are contiguous index ranges and every element lands at its
    own index.  Work is {e claimed}, not assigned — each submitted
    batch carries an atomic chunk cursor, and the caller drains it
    alongside the workers.  This "caller helps" rule is what makes
    nested use safe: a pool task that itself calls [map] executes its
    inner chunks on its own domain instead of waiting for workers that
    may all be busy, so the pool cannot deadlock on nested parallelism.

    {b Exception containment.}  An exception raised by [f] is caught in
    the chunk that raised it and re-raised {e exactly once} in the
    caller of [map]/[iter_chunks] — the exception of the lowest failing
    index, matching the sequential map.  Worker domains never die: the
    same pool instance keeps serving batches after a failing one.

    {b Shutdown.}  [shutdown] drains the queue, stops the workers and
    joins their domains; it is idempotent.  A pool that has been shut
    down still accepts [map]/[iter_chunks] and runs them caller-side
    sequentially — degraded, never broken. *)

type t

(** [num_domains ()] is the recommended worker count
    ([Domain.recommended_domain_count], at least 1). *)
val num_domains : unit -> int

(** [create ?workers ()] spawns [max 1 workers] worker domains (default
    {!num_domains}).  Remember that OCaml caps live domains at a small
    fixed number: create few pools, reuse them, and [shutdown] pools
    you are done with (tests included). *)
val create : ?workers:int -> unit -> t

(** [size t] is the number of worker domains (even after shutdown). *)
val size : t -> int

(** [is_stopped t] — has {!shutdown} run?  A stopped pool still accepts
    [map]/[iter_chunks] but executes them caller-side sequentially. *)
val is_stopped : t -> bool

(** [default ()] is the shared process-wide pool, created on first use
    with {!num_domains} workers and shut down automatically at exit.
    {!Par.iter_chunks}, the solver race and the dense-table builds run
    on it.  If the shared
    pool has been shut down, a fresh one is created (and registered for
    shutdown at exit) rather than returning the stopped instance —
    otherwise every later parallel map would silently run
    sequentially. *)
val default : unit -> t

(** [map ?chunks t f arr] — the deterministic parallel map.  [f] must
    be pure/thread-safe; it is applied exactly once per element, on
    whichever domain (worker or caller) claims the element's chunk.
    [chunks] controls the split granularity (default [size t + 1],
    clamped to the array length); it affects scheduling only, never the
    result. *)
val map : ?chunks:int -> t -> ('a -> 'b) -> 'a array -> 'b array

(** [iter_chunks ?chunks t f n] runs [f lo hi] over a partition of
    [0..n-1] into contiguous chunks (default [size t + 1] of them),
    in parallel on the pool.  [n <= 0] is a no-op. *)
val iter_chunks : ?chunks:int -> t -> (int -> int -> unit) -> int -> unit

(** [shutdown t] stops the workers after the queue drains and joins
    their domains.  Idempotent; safe to call with batches in flight
    (they complete first). *)
val shutdown : t -> unit
