(** Minimal multicore helpers (OCaml 5 domains).

    These helpers run on the shared persistent worker pool
    ({!Pool.default}): domains are spawned once per process, not once
    per call, so a serving loop can issue thousands of parallel calls
    per second without paying [Domain.spawn] each time. *)

(** [num_domains ()] is the recommended worker count
    ([Domain.recommended_domain_count], at least 1). *)
val num_domains : unit -> int

(** [iter_chunks ?domains f n] runs [f lo hi] over a partition of
    [0..n-1] into contiguous chunks, in parallel on {!Pool.default}. *)
val iter_chunks : ?domains:int -> (int -> int -> unit) -> int -> unit
