(** The DP frontier shared by {!Mt_dp} and {!Online_dp}: level storage,
    the key index and the beam policy.  Each engine keeps its own
    transition, dominance rule and cut-off completion.  Nothing here
    iterates a hash table, so results do not depend on hashing or on
    the key representation. *)

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

(** [compact lv ~cap] — the beam policy.  Over [cap] live states it
    keeps the [cap] cheapest by (accumulated cost, index); then it
    drops every tombstone, survivors in index order.  Returns the
    number of live states before the cut. *)
val compact : level -> cap:int -> int

(** [best lv] — the first live state of lowest accumulated cost, or
    [-1] when none is live. *)
val best : level -> int

(** The engines poll their budget every [poll_mask + 1] = 4096 emitted
    candidates. *)
val poll_mask : int

(** [exact_fits ~m ~n] — the exact engines' size guard: [n^m], the
    most states one level can hold, is at most two million. *)
val exact_fits : m:int -> n:int -> bool

(** Numbers the distinct keys of one level — the first [fields] ints of
    a state vector — 0, 1, 2, … in order of first sight.  A key packs
    into one [int] when [fields · bits <= 62], [bits] being the width
    of the field range; otherwise it is a byte string, built in a
    reused buffer and copied only when it is new. *)
module Index : sig
  type t

  val create : fields:int -> t

  (** [reset ix ~lo ~hi] forgets every key; the keys that follow have
      every field in [lo .. hi]. *)
  val reset : t -> lo:int -> hi:int -> unit

  (** [find_or_add ix v] — the number of [v]'s key; a new key gets
      {!count}. *)
  val find_or_add : t -> int array -> int

  (** [count ix] — the keys seen since the last reset. *)
  val count : t -> int
end
