(** Search moves on raw breakpoint matrices.

    The stochastic optimizers ({!Mt_ga}, {!Mt_anneal}, {!Mt_local})
    share this kit of genome operators.  All functions treat their
    input matrices as immutable (they return fresh arrays) and preserve
    the invariant that column 0 stays all-true.  Their outputs for
    fixed seeds are pinned by the [moves] test suite: the optimizers'
    plans depend on them draw for draw.  The [align] move exists because the
    task-parallel cost combines simultaneous hyperreconfigurations by
    [max]: aligning breakpoints across tasks is frequently free and the
    optimizers must be able to discover that (cf. the paper's Fig. 3,
    where tasks hyperreconfigure in lockstep groups). *)

type matrix = bool array array

(** [random rng ~m ~n ~density] sets each non-mandatory entry with
    probability [density]. *)
val random : Hr_util.Rng.t -> m:int -> n:int -> density:float -> matrix

(** [flip rng g] toggles one random non-column-0 entry. *)
val flip : Hr_util.Rng.t -> matrix -> matrix

(** [shift rng g] moves one random breakpoint one step left or right
    (no-op when the target cell is occupied or out of range). *)
val shift : Hr_util.Rng.t -> matrix -> matrix

(** [align rng g] picks a random set column and copies its breakpoint
    pattern to every task (making the column all-true), or clears a
    random column (except column 0). *)
val align : Hr_util.Rng.t -> matrix -> matrix

(** [mutate rng g] applies a geometric number of random moves drawn
    from {!flip} / {!shift} / {!align}.  It copies [g] once and runs
    the whole chain in place on that copy. *)
val mutate : Hr_util.Rng.t -> matrix -> matrix

(** [crossover rng a b] mixes two parents: per-task row selection or a
    single column-cut splice, chosen at random — both preserve row
    structure, which is what the fitness landscape rewards. *)
val crossover : Hr_util.Rng.t -> matrix -> matrix -> matrix

(** [neighbors g] enumerates the deterministic single-bit-flip
    neighborhood (used by the hill climber). *)
val neighbors : matrix -> matrix Seq.t

(** [copy g] is a deep copy. *)
val copy : matrix -> matrix
