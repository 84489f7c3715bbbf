(** A persistent content-addressed store for dense oracle tables.

    The dense tables {!Interval_cost} builds (m·n(n+1)/2 cells, laid
    out by {!Interval_cost}; this module stores them as flat payloads)
    are pure functions of the oracle inputs, so they can be spilled to
    disk once and reloaded — across batches, server restarts and bench
    runs — instead of being rebuilt.  A [Table_cache.t] is a directory
    of table files addressed by a {e structural hash of the oracle
    inputs}: [Hr_check.Case.oracle_key], the digest of a case's
    canonical oracle spec.  Equal inputs produce equal keys produce one
    shared file; any input change changes the key, so entries are
    immutable and never logically stale.  [Hr_check.Case.problem] is
    the one reader and writer, through {!Interval_cost.of_cache} and
    {!Interval_cost.store}.

    {b Layout.}  One file per entry, [<dir>/<key>.tbl]: a fixed 64-byte
    header (magic + format version, element width, host endianness,
    cell count, MD5 of the payload) followed by the raw cell payload in
    native byte order.  See [docs/caching.md] for the byte-level
    format.

    {b Writes} go through a unique temp file in the same directory and
    a final atomic [rename], so concurrent writers racing on one key
    are safe (last writer wins, both files were complete) and readers
    never observe a half-written entry.  Store failures (permissions,
    full disk) are contained and counted, never raised — the cache is
    an accelerator, not a dependency.

    {b Loads} validate the header (magic, format version, endianness,
    width, cell count, file size) and the payload digest before
    [mmap]-ing the payload as a {!Flat_table.t}: a corrupt, truncated
    or version-bumped file is reported as a miss (and counted in
    [stats.invalid]) so the caller rebuilds and overwrites it.  A hit
    costs one digest pass over the file — no oracle calls — and the
    mapped table is demand-paged and shared read-only across domains. *)

type t

(** Monotone counters over the handle's lifetime ([of_dir] memoizes
    handles per directory, so every user of a directory shares one
    counter set). *)
type stats = {
  hits : int;  (** loads served from a valid file *)
  misses : int;  (** loads that found no usable entry (invalid included) *)
  stores : int;  (** entries written and renamed into place *)
  invalid : int;  (** files rejected: bad magic/version/size/digest *)
  errors : int;  (** contained I/O failures (store or mmap) *)
}

(** The on-disk format version, embedded in the file magic: 2 since the
    dense layout became triangular.  Bumping it invalidates every
    existing entry (old files load as misses and are rebuilt). *)
val format_version : int

(** [of_dir dir] is the cache rooted at [dir], created (recursively) if
    missing.  Handles are memoized per directory string, so repeated
    calls share one handle and one stats block. *)
val of_dir : string -> t

val dir : t -> string
val stats : t -> stats

(** [file t ~key] is the path the entry for [key] lives at (whether or
    not it exists yet). *)
val file : t -> key:string -> string

(** [load t ~key ~cells] validates and maps the entry for [key].
    [None] — counted as a miss — when the file is absent, has a stale
    format version, disagrees with [cells], or fails the digest check.
    Raises [Invalid_argument] on a key that is not a simple filename
    token ([A-Za-z0-9._-], no leading dot). *)
val load : t -> key:string -> cells:int -> Flat_table.t option

(** [store t ~key table] writes [table] under [key] via temp-file +
    atomic rename.  Best-effort: I/O failures increment
    [stats.errors] and leave any previous entry untouched. *)
val store : t -> key:string -> Flat_table.t -> unit
