(** Hyperreconfiguration-point matrices.

    On a fully synchronized machine every candidate solution is an
    m×n boolean matrix: entry [(j, i)] says whether task [j] performs a
    partial (local) hyperreconfiguration immediately before
    reconfiguration step [i] (this is the indicator [I_{j,i}] of the
    paper's §4.2 cost formula).  Column 0 is always all-true: after
    (re)initialization every task must define a hypercontext before its
    first reconfiguration. *)

type t

(** [create ~m ~n] is the matrix with only column 0 set — the
    "hyperreconfigure once, never again" plan. *)
val create : m:int -> n:int -> t

(** [of_matrix bp] validates and copies a raw matrix: rectangular,
    non-empty, column 0 all-true.  Raises [Invalid_argument]
    otherwise. *)
val of_matrix : bool array array -> t

(** [of_rows rows] builds from per-task breakpoint index lists; index 0
    is added implicitly.  Raises on out-of-range indices. *)
val of_rows : m:int -> n:int -> int list array -> t

(** [all ~m ~n] is the hyperreconfigure-every-step plan. *)
val all : m:int -> n:int -> t

(** [periodic ~m ~n k] sets breakpoints at steps 0, k, 2k, … for every
    task.  Raises on [k <= 0]. *)
val periodic : m:int -> n:int -> int -> t

(** [m t], [n t] are the dimensions. *)
val m : t -> int

val n : t -> int

(** [is_break t j i] is [I_{j,i}]. *)
val is_break : t -> int -> int -> bool

(** [set t j i b] is a fresh matrix with entry [(j,i)] set to [b].
    Raises [Invalid_argument] when trying to clear column 0. *)
val set : t -> int -> int -> bool -> t

(** [row t j] is the row of task [j] (fresh array). *)
val row : t -> int -> bool array

(** [matrix t] is a fresh copy of the raw matrix. *)
val matrix : t -> bool array array

(** [unsafe_matrix t] is the raw matrix itself, not a copy, for
    read-only hot loops such as {!Sync_cost.eval}.  Writing to it
    breaks [t]'s invariants. *)
val unsafe_matrix : t -> bool array array

(** [intervals t j] is the block decomposition of task [j]'s row as a
    list of inclusive [(lo, hi)] ranges covering [0..n-1]. *)
val intervals : t -> int -> (int * int) list

(** [interval_of t j i] is the [(lo, hi)] block of task [j] containing
    step [i]. *)
val interval_of : t -> int -> int -> int * int

(** [break_count t j] is the number of partial hyperreconfigurations of
    task [j] (counting step 0). *)
val break_count : t -> int -> int

(** [break_columns t] is the sorted list of steps where at least one
    task hyperreconfigures. *)
val break_columns : t -> int list

(** [copy t] is a deep copy. *)
val copy : t -> t

(** [equal a b] compares matrices. *)
val equal : t -> t -> bool

(** [single_of_multi t] collapses the matrix to a 1×n matrix whose
    breakpoints are the union of all tasks' breakpoints (the plan the
    corresponding single-task machine would need to emulate the
    multi-task one). *)
val single_of_multi : t -> t

(** [pp] prints rows as ['#'] (break) / ['.'] (no break). *)
val pp : Format.formatter -> t -> unit
