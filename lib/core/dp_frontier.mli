(** The DP frontier shared by {!Mt_dp} and {!Online_dp}: level storage,
    the key index and the size guard.  Each engine keeps its own
    transition, dominance rule and cut-off completion.  Nothing here
    iterates a hash table, so results do not depend on hashing. *)

(** One DP level as flat buffers: state [s] holds [width] ints at
    [vec.(s*width ..)], its accumulated cost [acc.(s)] and its history
    [breaks.(s)] of (task, step) pairs, latest first, whose tails the
    levels share; [alive.(s) = false] once an engine tombstones it.
    Entries at or past [len] are spare capacity. *)
type level = {
  width : int;
  mutable vec : int array;
  mutable acc : int array;
  mutable breaks : (int * int) list array;
  mutable alive : bool array;
  mutable len : int;
}

(** [create ~width cap] — an empty level with room for [cap] states. *)
val create : width:int -> int -> level

(** [clear lv] empties [lv], keeping its buffers. *)
val clear : level -> unit

(** [push lv v ~acc ~breaks] appends a live state with vector
    [v.(0 .. width-1)] and returns its index; buffers double when
    full. *)
val push : level -> int array -> acc:int -> breaks:(int * int) list -> int

(** [copy lv] holds exactly [lv]'s states and shares nothing mutable. *)
val copy : level -> level

(** [compact lv] drops every tombstone, survivors in index order. *)
val compact : level -> unit

(** [best lv] — the first live state of lowest accumulated cost, or
    [-1] when none is live. *)
val best : level -> int

(** The engines poll their budget every [poll_mask + 1] = 4096 emitted
    candidates. *)
val poll_mask : int

(** [exact_fits ~m ~n] — the exact engines' size guard: [n^m], the
    most states one level can hold, is at most two million, and [m]
    fields over {!Mt_dp}'s block-end range [-1 .. n-1] pack into one
    {!Index} key.  For [n >= 1] the second condition binds only at
    [n = 1], [m >= 63]. *)
val exact_fits : m:int -> n:int -> bool

(** Numbers the distinct keys of one level — the first [fields] ints of
    a state vector — 0, 1, 2, … in order of first sight.  A key is
    packed into one [int], [bits] per field, [bits] being the width of
    the field range. *)
module Index : sig
  type t

  val create : fields:int -> t

  (** [reset ix ~lo ~hi] forgets every key; the keys that follow have
      every field in [lo .. hi].  Call it before the first key.  Raises
      [Invalid_argument] when [fields · bits > 62]; behind
      {!exact_fits} neither engine reaches that. *)
  val reset : t -> lo:int -> hi:int -> unit

  (** [find_or_add ix v] — the number of [v]'s key; a new key gets
      {!count}. *)
  val find_or_add : t -> int array -> int

  (** [count ix] — the keys seen since the last reset. *)
  val count : t -> int
end
