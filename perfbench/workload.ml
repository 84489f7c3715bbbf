(* The benchmark's workloads.  Each turns [--seed] into the request
   lines the program receives — nothing else crosses over — plus the
   per-workload serving configuration. *)

open Hr_core
module Case = Hr_check.Case

type t = {
  lines : string array;  (** every distinct case line, indexed by case id *)
  stream : int array;
      (** the timed requests' case ids, in order; a run that gets
          through all of them starts over *)
  warm : int array;  (** the case ids each set-up serves before timing *)
  tasks : int array;  (** the number of tasks m of each case, by case id *)
  solvers : Problem.t -> Solver.t list;
  lru_bytes : int;  (** the [Batch.build_cache ~max_bytes] budget *)
}

(* Full size for measuring; tiny for the self-test. *)
type scale = Full | Tiny

let names = [ "race-portfolio"; "wide-repeat" ]

(* A stream of derived generator seeds: [salt] separates the timed
   cases from the warm-up cases of the same [--seed]. *)
let sub_seed ~seed ~salt i = Hashtbl.hash (seed, salt, i)

let greedy_only =
  let greedy = Solver_registry.find_exn "greedy" in
  fun _ -> [ greedy ]

(* race-portfolio: distinct instances with 8 local switches per task,
   m = 2 and m = 3 in turn, served by every applicable backend.  n is 12
   for m = 2 and 8 for m = 3, which gives both the same race time (the
   heuristics' chunk scales with m·n) and keeps brute force,
   (n-1)·m ≤ 18, out. *)
let race_portfolio ~scale ~seed =
  let count, warm = match scale with Full -> (2000, 10) | Tiny -> (2, 1) in
  let seen = Hashtbl.create count in
  let tasks i = if i land 1 = 0 then 2 else 3 in
  let rec fresh ~salt i =
    let s = sub_seed ~seed ~salt i in
    let m = tasks i in
    let line =
      Case.to_string (Cases.multi ~seed:s ~m ~n:(if m = 2 then 12 else 8) ~local:8 ())
    in
    let key = Digest.string line in
    if Hashtbl.mem seen key then fresh ~salt:(salt + 2) i
    else begin
      Hashtbl.add seen key ();
      line
    end
  in
  let timed = Array.init count (fresh ~salt:0) in
  let warm_lines = Array.init warm (fresh ~salt:1) in
  {
    lines = Array.append timed warm_lines;
    stream = Array.init count Fun.id;
    warm = Array.init warm (fun i -> count + i);
    tasks = Array.append (Array.init count tasks) (Array.init warm tasks);
    solvers = Solver_registry.applicable;
    lru_bytes = 64 * 1024 * 1024;
  }

type wide = {
  n : int;
  local : int;
  density : float;
  working_set : int;
  lru_entries : int;
  length : int;
  p_new : float;
  zipf_s : float;
}

let wide_full =
  {
    n = 192;
    local = 2048;
    density = 0.02;
    working_set = 48;
    lru_entries = 24;
    length = 12_000;
    p_new = 0.02;
    zipf_s = 1.0;
  }

let wide_tiny =
  {
    n = 24;
    local = 64;
    density = 0.1;
    working_set = 6;
    lru_entries = 3;
    length = 12;
    p_new = 0.1;
    zipf_s = 1.0;
  }

(* wide-repeat: m = 2 dense-rung cases over 2048-switch spaces, Zipf
   popularity over a working set twice the LRU budget, and a trickle of
   never-seen cases (working-set traces rotated by a fresh offset).  The
   LRU budget is a fixed number of today's dense tables (m·n² 16-bit
   cells each), so a leaner table fits more entries in the same bytes. *)
let wide_repeat ~scale ~seed =
  let p = match scale with Full -> wide_full | Tiny -> wide_tiny in
  let m = 2 in
  (* Cases become lines at once, so generation never holds more than one
     parsed case: the set-up and timed phases, not the generator, set
     the process's peak memory. *)
  let base =
    Array.init p.working_set (fun i ->
        Case.to_string
          (Cases.multi ~seed:(sub_seed ~seed ~salt:2 i) ~m ~n:p.n ~local:p.local
             ~density:p.density ()))
  in
  let rotated c =
    match Case.of_string base.(c mod p.working_set) with
    | Ok case -> Case.to_string (Cases.rotate case (1 + (c / p.working_set)))
    | Error e -> invalid_arg e
  in
  let rng = Hr_util.Rng.create (sub_seed ~seed ~salt:3 0) in
  let cumulative =
    let acc = ref 0. in
    Array.init p.working_set (fun r ->
        acc := !acc +. (1. /. (float (r + 1) ** p.zipf_s));
        !acc)
  in
  let total = cumulative.(p.working_set - 1) in
  let zipf () =
    let u = Hr_util.Rng.float rng *. total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (p.working_set - 1)
  in
  let fresh = ref [] and n_fresh = ref 0 in
  let stream =
    Array.init p.length (fun _ ->
        if Hr_util.Rng.float rng < p.p_new then begin
          let c = !n_fresh in
          incr n_fresh;
          fresh := rotated c :: !fresh;
          p.working_set + c
        end
        else zipf ())
  in
  let lines = Array.append base (Array.of_list (List.rev !fresh)) in
  let distinct = Hashtbl.create 256 in
  Array.iter (fun l -> Hashtbl.replace distinct (Digest.string l) ()) lines;
  assert (Hashtbl.length distinct = Array.length lines);
  {
    lines;
    stream;
    (* Serve the whole working set once, least popular case first: the
       LRU ends full with the most popular cases, the most popular last
       (MRU). *)
    warm = Array.init p.working_set (fun i -> p.working_set - 1 - i);
    tasks = Array.make (Array.length lines) m;
    solvers = greedy_only;
    lru_bytes = p.lru_entries * m * p.n * p.n * 2;
  }

let make ~scale ~seed = function
  | "race-portfolio" -> race_portfolio ~scale ~seed
  | "wide-repeat" -> wide_repeat ~scale ~seed
  | w -> invalid_arg (Printf.sprintf "unknown workload %S (known: %s)" w (String.concat ", " names))
