open Hr_core
module Rng = Hr_util.Rng

type profile = {
  max_m : int;
  max_n : int;
  max_width : int;
  large_fraction : float;
  place_fraction : float;
}

let default_profile =
  {
    max_m = 3;
    max_n = 6;
    max_width = 5;
    large_fraction = 0.08;
    place_fraction = 0.25;
  }

(* Skew toward small values: pick the min of two uniform draws. *)
let small_int rng lo hi = lo + min (Rng.int rng (hi - lo + 1)) (Rng.int rng (hi - lo + 1))

let gen_reqs rng ~m ~n ~widths =
  Array.init m (fun j ->
      List.init n (fun _ ->
          List.filter (fun _ -> Rng.chance rng 0.35) (List.init widths.(j) Fun.id)))

let gen_machine_class rng =
  match Rng.int rng 6 with
  | 0 | 1 | 2 -> Problem.Partial
  | 3 | 4 -> Problem.All_task
  | _ -> Problem.Restricted

let gen_mode rng =
  match Rng.int rng 6 with
  | 0 | 1 | 2 -> Mixed_sync.Fully_synchronized
  | 3 -> Mixed_sync.Hypercontext_synchronized
  | 4 -> Mixed_sync.Context_synchronized
  | _ -> Mixed_sync.Non_synchronized

(* Parameters compatible with the drawn mode (Problem.check_mode_params):
   outside full synchronization w = 0 and uploads are task-parallel,
   and pub > 0 additionally needs context synchronization.  Drawn by
   hand rather than by rejection, so the suite checks this mirror
   against the rules. *)
let gen_params rng mode =
  match mode with
  | Mixed_sync.Fully_synchronized ->
      {
        Sync_cost.w = small_int rng 0 3;
        pub = small_int rng 0 2;
        hyper = (if Rng.chance rng 0.25 then Sync_cost.Task_sequential else Sync_cost.Task_parallel);
        reconf = (if Rng.chance rng 0.25 then Sync_cost.Task_sequential else Sync_cost.Task_parallel);
      }
  | Mixed_sync.Context_synchronized ->
      { Sync_cost.default_params with Sync_cost.pub = small_int rng 0 2 }
  | Mixed_sync.Hypercontext_synchronized | Mixed_sync.Non_synchronized ->
      Sync_cost.default_params

let gen_spec rng profile ~large =
  let max_m = if large then profile.max_m + 2 else profile.max_m in
  let max_n = if large then profile.max_n + 8 else profile.max_n in
  match Rng.int rng 10 with
  | 0 | 1 ->
      (* Chain-DAG model (single task — Problem.of_dag's shape). *)
      let num_contexts = Rng.int_in rng 1 4 in
      let levels = Rng.int_in rng 1 num_contexts in
      let sat_sizes =
        (* [levels] distinct sizes in 1..num_contexts, the last being
           num_contexts so some hypercontext satisfies everything. *)
        let pool = Array.init (num_contexts - 1) (fun i -> i + 1) in
        Rng.shuffle rng pool;
        let chosen = Array.sub pool 0 (levels - 1) in
        Array.sort compare chosen;
        Array.append chosen [| num_contexts |]
      in
      let costs = Array.init levels (fun _ -> Rng.int_in rng 1 6) in
      Array.sort compare costs;
      let n = small_int rng 1 max_n in
      let seq = Array.init n (fun _ -> Rng.int rng num_contexts) in
      Case.Dag { num_contexts; w = small_int rng 0 4; costs; sat_sizes; seq }
  | 2 | 3 ->
      let m = small_int rng 1 max_m in
      let n = small_int rng 1 max_n in
      let widths = Array.init m (fun _ -> Rng.int_in rng 1 profile.max_width) in
      let weights =
        Array.map (fun w -> Array.init w (fun _ -> Rng.int_in rng 1 4)) widths
      in
      Case.Weighted { widths; reqs = gen_reqs rng ~m ~n ~widths; weights }
  | _ ->
      let m = small_int rng 1 max_m in
      let n = small_int rng 1 max_n in
      let widths = Array.init m (fun _ -> Rng.int_in rng 1 profile.max_width) in
      let vs = Array.init m (fun _ -> small_int rng 0 6) in
      Case.Switch { widths; vs; reqs = gen_reqs rng ~m ~n ~widths }

(* A random fabric for an m-task, n-step case, skewed so that brute
   ground truth stays feasible: fabric width at most m + 2, task sizes
   1-2, short relocation costs.  Drawn fabrics can violate the per-step
   fit or the DP caps, so each draw is validated and a guaranteed-valid
   fallback (every task sized 1 on a width-m strip, resident
   throughout) backstops the retries. *)
let gen_fabric rng ~m ~n =
  let fallback =
    { Hr_place.Fabric.width = m; sizes = Array.make m 1;
      windows = Array.make m (0, n - 1); reloc = Array.make m 1 }
  in
  let draw () =
    let width = Rng.int_in rng (max 2 m) (m + 2) in
    let sizes = Array.init m (fun _ -> Rng.int_in rng 1 (min 2 width)) in
    let windows =
      Array.init m (fun _ ->
          if Rng.chance rng 0.6 then (0, n - 1)
          else
            let a = Rng.int rng n in
            let d = a + Rng.int rng (n - a) in
            (a, d))
    in
    let reloc = Array.init m (fun _ -> small_int rng 0 3) in
    { Hr_place.Fabric.width; sizes; windows; reloc }
  in
  let rec try_draws k =
    if k = 0 then fallback
    else
      let f = draw () in
      match Hr_place.Fabric.check ~n f with Ok () -> f | Error _ -> try_draws (k - 1)
  in
  try_draws 8

let case ?(profile = default_profile) rng =
  let large = Rng.chance rng profile.large_fraction in
  let mode = gen_mode rng in
  let params = gen_params rng mode in
  let machine_class = gen_machine_class rng in
  let spec = gen_spec rng profile ~large in
  let base = { Case.spec; params; mode; machine_class; place = None } in
  (* Placement cases stay in the tiny regime (m <= 3) so that both
     Brute on the joint objective and Place_brute remain feasible for
     the conformance columns. *)
  let m = Case.m base and n = Case.n base in
  let place =
    if m <= 3 && Rng.chance rng profile.place_fraction then
      Some (gen_fabric rng ~m ~n)
    else None
  in
  { base with Case.place }
