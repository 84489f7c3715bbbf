type mode =
  | Fully_synchronized
  | Hypercontext_synchronized
  | Context_synchronized
  | Non_synchronized

let eval ~mode ?(pub = 0) (oracle : Interval_cost.t) bp =
  if pub < 0 then invalid_arg "Mixed_sync.eval: negative pub";
  (match mode with
  | Context_synchronized | Fully_synchronized -> ()
  | Hypercontext_synchronized | Non_synchronized ->
      if pub > 0 then
        invalid_arg
          "Mixed_sync.eval: public global resources require a context-synchronized \
           machine (paper, section 3)");
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  if Breakpoints.m bp <> m || Breakpoints.n bp <> n then
    invalid_arg "Mixed_sync.eval: plan/instance dimension mismatch";
  let reconf = Sync_cost.step_reconf_costs oracle bp in
  (* Barrier-combined terms. *)
  let hyper_barrier =
    let total = ref 0 in
    for i = 0 to n - 1 do
      let step = ref 0 in
      for j = 0 to m - 1 do
        if Breakpoints.is_break bp j i then step := max !step oracle.Interval_cost.v.(j)
      done;
      total := !total + !step
    done;
    !total
  in
  let reconf_barrier =
    let total = ref 0 in
    for i = 0 to n - 1 do
      let step = ref pub in
      for j = 0 to m - 1 do
        step := max !step reconf.(j).(i)
      done;
      total := !total + !step
    done;
    !total
  in
  (* Per-task accumulated (overlapping) terms. *)
  let hyper_of j =
    List.fold_left (fun acc (_, _) -> acc + oracle.Interval_cost.v.(j)) 0
      (Breakpoints.intervals bp j)
  in
  let reconf_of j = Array.fold_left ( + ) 0 reconf.(j) in
  let max_over f =
    let rec go j acc = if j >= m then acc else go (j + 1) (max acc (f j)) in
    go 0 0
  in
  match mode with
  | Fully_synchronized -> hyper_barrier + reconf_barrier
  | Hypercontext_synchronized -> hyper_barrier + max_over reconf_of
  | Context_synchronized -> max_over hyper_of + reconf_barrier
  | Non_synchronized -> max_over (fun j -> hyper_of j + reconf_of j)

let pp_mode ppf = function
  | Fully_synchronized -> Format.pp_print_string ppf "fully-synchronized"
  | Hypercontext_synchronized -> Format.pp_print_string ppf "hypercontext-synchronized"
  | Context_synchronized -> Format.pp_print_string ppf "context-synchronized"
  | Non_synchronized -> Format.pp_print_string ppf "non-synchronized"
