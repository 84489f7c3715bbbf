(** Width-laddered flat tables on [Bigarray] storage.

    The dense oracle table ({!Interval_cost}) used to live in OCaml
    [int array]s: one boxed word per cell, scanned by the GC on every
    major cycle and multiplied across the {!Hr_util.Pool} domains'
    heaps.  A [Flat_table.t] keeps the same
    O(1) lock-free reads but stores cells out of the OCaml heap in a
    [Bigarray.Array1] — zero-copy shareable across domains (the mapping
    lives in the process address space, not a domain-local heap), never
    scanned by the GC, and {e width-laddered}: the element width is the
    narrowest of 16/32/64 bits that holds the table's maximum value, so
    a table of small interval-union cardinalities costs 2 bytes per cell
    instead of 8.

    Cell values are non-negative OCaml [int]s; [I16] holds values up to
    [0xFFFF], [I32] up to [Int32.max_int], [I64] anything.  Writes
    through {!writer}/{!set} are overflow-checked (raising {!Overflow})
    so a mis-predicted bound corrupts nothing; reads are plain
    bounds-checked Bigarray gets. *)

type t =
  | I16 of (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
  | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | I64 of (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Raised by {!set}/{!writer} when a value does not fit the table's
    element width (negative, or beyond the width's maximum). *)
exception Overflow of { index : int; value : int; width_bits : int }

(** [create ~max_value len] allocates a zero-filled table of [len]
    cells wide enough for [max_value] (16 bits below 2¹⁶, 32 bits up to
    [Int32.max_int], 64 bits beyond).  Raises [Invalid_argument] on
    negative [len]. *)
val create : max_value:int -> int -> t

val length : t -> int

(** [width_bits t] is 16, 32 or 64. *)
val width_bits : t -> int

(** [bytes t] is the out-of-heap payload size: [length t * width_bits t / 8]. *)
val bytes : t -> int

(** [max_representable t] is the largest value {!set} accepts. *)
val max_representable : t -> int

(** [get t i] reads cell [i] as an [int].  Bounds-checked. *)
val get : t -> int -> int

(** [set t i v] writes cell [i]; raises {!Overflow} when [v] is
    negative or exceeds {!max_representable}. *)
val set : t -> int -> int -> unit

(** [reader t] is {!get} with the width dispatch hoisted out of the
    per-call path — bind it once outside a query loop. *)
val reader : t -> int -> int

(** [writer t] is {!set} with the width dispatch hoisted.  Safe to use
    from several domains on disjoint index ranges (parallel builds
    write each cell exactly once). *)
val writer : t -> int -> int -> unit

(** [equal a b] — same length and elementwise equal {e values},
    regardless of storage width. *)
val equal : t -> t -> bool
