module Pool = Hr_util.Pool
module Bitset = Hr_util.Bitset

type dense_source = Built | Mapped

type cache =
  | Direct
  | Dense_table of {
      table : Flat_table.t;
      build_ms : float;
      build_workers : int;
      build_seq_ms : float;
      source : dense_source;
    }
  | Sparse_index of { indexes : Occ_index.t array; build_ms : float }

type policy = Dense | Sparse | Auto

let policy_enum = [ ("dense", Dense); ("sparse", Sparse); ("auto", Auto) ]

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

type t = {
  m : int;
  n : int;
  v : int array;
  step_cost : int -> int -> int -> int;
  cache : cache;
}

let no_stats =
  {
    kind = "direct";
    queries = 0;
    cells = 0;
    segments = 0;
    build_ms = 0.;
    build_workers = 1;
    build_seq_ms = 0.;
    width_bits = 0;
    bytes_resident = 0;
    bytes_peak = 0;
    source = "";
  }

let cache_stats t =
  match t.cache with
  | Direct -> no_stats
  | Dense_table { table; build_ms; build_workers; build_seq_ms; source } ->
      let bytes = Flat_table.bytes table in
      {
        no_stats with
        kind = "dense";
        cells = Flat_table.length table;
        build_ms;
        build_workers;
        build_seq_ms;
        width_bits = Flat_table.width_bits table;
        bytes_resident = bytes;
        bytes_peak = bytes;
        source = (match source with Built -> "built" | Mapped -> "mmap");
      }
  | Sparse_index { indexes; build_ms } ->
      let sum f = Array.fold_left (fun acc ix -> acc + f ix) 0 indexes in
      let bytes = sum Occ_index.bytes in
      {
        no_stats with
        kind = "sparse";
        queries = sum Occ_index.queries;
        (* cells: the occurrence-list entries actually stored — the
           sparse analogue of the dense table's cell count. *)
        cells = sum Occ_index.entries;
        segments = sum Occ_index.segments;
        build_ms;
        build_seq_ms = build_ms;
        width_bits = 64;
        bytes_resident = bytes;
        bytes_peak = bytes;
      }

let make ~m ~n ~v ~step_cost =
  if m <= 0 then invalid_arg "Interval_cost.make: m must be positive";
  if n < 0 then invalid_arg "Interval_cost.make: negative n";
  if Array.length v <> m then invalid_arg "Interval_cost.make: |v| <> m";
  { m; n; v = Array.copy v; step_cost; cache = Direct }

(* ------------------------------------------------------------------ *)
(* The dense layout.  Only the upper triangle lo <= hi exists: task j's
   n(n+1)/2 cells start at j·n(n+1)/2, row lo of a triangle starts at
   lo·n − lo(lo−1)/2, and cell (lo, hi) sits hi − lo into its row. *)

let tri_cells n = n * (n + 1) / 2
let dense_cells ~m ~n = m * tri_cells n

(* [row_bases n].(lo) + hi is the index of cell (0, lo, hi). *)
let row_bases n = Array.init n (fun lo -> (lo * n) - (lo * (lo - 1) / 2) - lo)

let dense_lookup ~n table =
  let read = Flat_table.reader table in
  let tri = tri_cells n and rows = row_bases n in
  (* A task outside 0..m-1 or lo < 0 falls off the row array or the
     table, which raises Invalid_argument as well. *)
  fun j lo hi ->
    if lo > hi || hi >= n then
      invalid_arg (Printf.sprintf "Interval_cost: bad range [%d,%d] (n=%d)" lo hi n);
    read ((j * tri) + rows.(lo) + hi)

(* Parallelize a dense build on the pool at or above this many cells;
   below it, queue traffic would dominate the row sweeps. *)
let parallel_build_cells = 1 lsl 15

(* The one dense build.  [fill write base j lo] writes cell (j, lo, hi)
   at index [base + hi] for every hi in lo..n-1.  The (task, lo) rows
   are independent, so they build in parallel on [pool] — by default
   the shared pool for tables of at least [parallel_build_cells] cells
   — and the per-chunk wall clocks add up to the sequential-equivalent
   build time.  [bound] picks the element width; a fill that exceeds it
   (a non-monotone custom oracle) trips the checked write and the table
   is rebuilt at full width instead of storing a truncated cell. *)
let build_dense ?pool ~m ~n ~bound fill =
  let t0 = Hr_util.Budget.now_ms () in
  let cells = dense_cells ~m ~n in
  let tri = tri_cells n and rows = row_bases n in
  let pool =
    match pool with
    | Some _ -> pool
    | None -> if cells >= parallel_build_cells then Some (Pool.default ()) else None
  in
  let seq_us = Atomic.make 0 in
  let build max_value =
    let table = Flat_table.create ~max_value cells in
    let write = Flat_table.writer table in
    Atomic.set seq_us 0;
    let fill_rows r_lo r_hi =
      let c0 = Hr_util.Budget.now_ms () in
      for r = r_lo to r_hi do
        let j = r / n and lo = r mod n in
        fill write ((j * tri) + rows.(lo)) j lo
      done;
      ignore
        (Atomic.fetch_and_add seq_us
           (int_of_float ((Hr_util.Budget.now_ms () -. c0) *. 1000.)))
    in
    let workers =
      match pool with
      | Some p ->
          Pool.iter_chunks ~chunks:(min (m * n) ((Pool.size p + 1) * 4)) p fill_rows (m * n);
          Pool.size p + 1
      | None ->
          fill_rows 0 ((m * n) - 1);
          1
    in
    (table, workers)
  in
  let table, build_workers =
    try build bound with Flat_table.Overflow _ -> build max_int
  in
  let build_ms = Hr_util.Budget.now_ms () -. t0 in
  let build_seq_ms =
    if build_workers = 1 then build_ms else float_of_int (Atomic.get seq_us) /. 1000.
  in
  (table, Dense_table { table; build_ms; build_workers; build_seq_ms; source = Built })

let dense ~m ~n ~v (table, cache) =
  { (make ~m ~n ~v ~step_cost:(dense_lookup ~n table)) with cache }

(* The switch-model fill: row lo of task j grows one union from step lo
   to n−1 and writes [measure j] of it after each step.  The whole
   trace's union is the largest a block union can be, so it bounds every
   cell. *)
let sweep ?pool ts ~measure =
  let m = Task_set.num_tasks ts and n = Task_set.steps ts in
  let traces = Array.init m (fun j -> (Task_set.get ts j).Task_set.trace) in
  let bound = ref 0 in
  Array.iteri (fun j tr -> bound := max !bound (measure j (Trace.total_union tr))) traces;
  build_dense ?pool ~m ~n ~bound:!bound (fun write base j lo ->
      let tr = traces.(j) in
      let acc = Bitset.copy (Trace.req tr lo) in
      write (base + lo) (measure j acc);
      for hi = lo + 1 to n - 1 do
        ignore (Bitset.union_into ~into:acc (Trace.req tr hi));
        write (base + hi) (measure j acc)
      done)

let task_vs ts = Array.init (Task_set.num_tasks ts) (fun j -> (Task_set.get ts j).Task_set.v)

(* 128 MiB: the same ceiling the old 16M-cell ([int array], 8 B/cell)
   default imposed, but now width-aware — a 16-bit table fits 4x the
   cells in the same budget. *)
let default_max_bytes = 128 * 1024 * 1024

let dense_of_task_set ?pool ts =
  dense ~m:(Task_set.num_tasks ts) ~n:(Task_set.steps ts) ~v:(task_vs ts)
    (sweep ?pool ts ~measure:(fun _ acc -> Bitset.cardinal acc))

let of_weighted ~v ~weights ts =
  dense ~m:(Task_set.num_tasks ts) ~n:(Task_set.steps ts) ~v
    (sweep ts ~measure:(fun j acc ->
         let w = weights.(j) in
         Bitset.fold (fun x s -> s + w.(x)) acc 0))

let sparse_of_task_set ts =
  let m = Task_set.num_tasks ts in
  let n = Task_set.steps ts in
  let t0 = Hr_util.Budget.now_ms () in
  let indexes =
    Array.init m (fun j -> Occ_index.of_trace (Task_set.get ts j).Task_set.trace)
  in
  let build_ms = Hr_util.Budget.now_ms () -. t0 in
  let step_cost j lo hi = Occ_index.size indexes.(j) lo hi in
  { (make ~m ~n ~v:(task_vs ts) ~step_cost) with cache = Sparse_index { indexes; build_ms } }

(* The dense footprint at the width [bound] needs; at bound 0 that is the
   2-byte minimum — the cheapest the dense rung can possibly be. *)
let projected_dense_bytes ~bound ~m ~n =
  let width = if bound <= 0xFFFF then 2 else if bound <= Int32.to_int Int32.max_int then 4 else 8 in
  width * dense_cells ~m ~n

let of_task_set ?pool ?(policy = Auto) ?(max_bytes = default_max_bytes) ts =
  match policy with
  | Dense -> dense_of_task_set ?pool ts
  | Sparse -> sparse_of_task_set ts
  | Auto ->
      let m = Task_set.num_tasks ts and n = Task_set.steps ts in
      if projected_dense_bytes ~bound:0 ~m ~n > max_bytes then sparse_of_task_set ts
      else dense_of_task_set ?pool ts

let of_single ?pool ?policy ?max_bytes ~v trace =
  of_task_set ?pool ?policy ?max_bytes (Task_set.single ~name:"task" ~v trace)

(* [step_cost] is monotone (non-increasing in lo, non-decreasing in
   hi), so the largest cell of task j is the full-interval cost — m
   oracle calls bound every cell and pick the element width. *)
let value_bound t =
  let b = ref 0 in
  for j = 0 to t.m - 1 do
    b := max !b (t.step_cost j 0 (t.n - 1))
  done;
  !b

let mapped table =
  ( table,
    Dense_table { table; build_ms = 0.; build_workers = 1; build_seq_ms = 0.; source = Mapped } )

let of_cache cache ~key ~m ~n ~v =
  if m <= 0 || n < 0 then None
  else
    Option.map
      (fun table -> dense ~m ~n ~v (mapped table))
      (Table_cache.load cache ~key ~cells:(dense_cells ~m ~n))

(* A mapped table is the cache's own copy and a sparse or direct oracle
   has no table, so only a table built in this process is written. *)
let store cache ~key t =
  match t.cache with
  | Dense_table { table; source = Built; _ } -> Table_cache.store cache ~key table
  | Dense_table { source = Mapped; _ } | Sparse_index _ | Direct -> ()

let precompute ?(max_bytes = default_max_bytes) ?pool t =
  match t.cache with
  | Dense_table _ | Sparse_index _ -> t
  | Direct when t.n = 0 -> t
  | Direct ->
      let m = t.m and n = t.n in
      let bound = value_bound t in
      (* Over the memory budget a custom oracle stays direct. *)
      if projected_dense_bytes ~bound ~m ~n > max_bytes then t
      else
        dense ~m ~n ~v:t.v
          (build_dense ?pool ~m ~n ~bound (fun write base j lo ->
               for hi = lo to n - 1 do
                 write (base + hi) (t.step_cost j lo hi)
               done))

let full_cost t j = if t.n = 0 then 0 else t.step_cost j 0 (t.n - 1)
