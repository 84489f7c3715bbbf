type upload = Task_parallel | Task_sequential

type params = { w : int; pub : int; hyper : upload; reconf : upload }

let default_params = { w = 0; pub = 0; hyper = Task_parallel; reconf = Task_parallel }

let check (oracle : Interval_cost.t) bp =
  if Breakpoints.m bp <> oracle.Interval_cost.m || Breakpoints.n bp <> oracle.Interval_cost.n
  then
    invalid_arg
      (Printf.sprintf "Sync_cost: plan is %dx%d but instance is %dx%d"
         (Breakpoints.m bp) (Breakpoints.n bp) oracle.Interval_cost.m
         oracle.Interval_cost.n)

(* Per-task, per-step reconfiguration costs: each step inherits the cost
   of its enclosing block. *)
let step_reconf_costs (oracle : Interval_cost.t) bp =
  check oracle bp;
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  Array.init m (fun j ->
      let out = Array.make n 0 in
      List.iter
        (fun (lo, hi) ->
          let c = oracle.Interval_cost.step_cost j lo hi in
          for i = lo to hi do
            out.(i) <- c
          done)
        (Breakpoints.intervals bp j);
      out)

(* The reference: the formula transcribed step by step. *)
let eval_per_step ?(params = default_params) (oracle : Interval_cost.t) bp =
  check oracle bp;
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  let reconf = step_reconf_costs oracle bp in
  Array.init n (fun i ->
      let hyper_cost =
        let combine acc j =
          if Breakpoints.is_break bp j i then
            match params.hyper with
            | Task_parallel -> max acc oracle.Interval_cost.v.(j)
            | Task_sequential -> acc + oracle.Interval_cost.v.(j)
          else acc
        in
        List.fold_left combine 0 (List.init m Fun.id)
      in
      let reconf_cost =
        match params.reconf with
        | Task_parallel ->
            let rec go j acc = if j >= m then acc else go (j + 1) (max acc reconf.(j).(i)) in
            go 0 params.pub
        | Task_sequential ->
            let rec go j acc = if j >= m then acc else go (j + 1) (acc + reconf.(j).(i)) in
            go 0 params.pub
      in
      (hyper_cost, reconf_cost))

(* The kernel: w + Σ_i (H_i + R_i) in one sweep over the rows of a
   matrix already known to be m×n with column 0 set, with one oracle
   query per block.  Under task-sequential upload Σ_i R_i is n·pub plus
   each block's length times its cost; under task-parallel upload R_i
   is a max across tasks, kept in a scratch array allocated per call so
   that domains may price plans concurrently.  Integer sums are
   associative even on overflow, so the total equals the per-step
   reference exactly. *)
let sweep params (oracle : Interval_cost.t) (g : bool array array) =
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  let v = oracle.Interval_cost.v and step_cost = oracle.Interval_cost.step_cost in
  let total = ref params.w in
  (match params.hyper with
  | Task_parallel ->
      for i = 0 to n - 1 do
        let h = ref 0 in
        for j = 0 to m - 1 do
          if g.(j).(i) && v.(j) > !h then h := v.(j)
        done;
        total := !total + !h
      done
  | Task_sequential ->
      for j = 0 to m - 1 do
        let row = g.(j) in
        for i = 0 to n - 1 do
          if row.(i) then total := !total + v.(j)
        done
      done);
  (match params.reconf with
  | Task_sequential ->
      total := !total + (n * params.pub);
      for j = 0 to m - 1 do
        let row = g.(j) and lo = ref 0 in
        for i = 1 to n do
          if i = n || row.(i) then begin
            total := !total + ((i - !lo) * step_cost j !lo (i - 1));
            lo := i
          end
        done
      done
  | Task_parallel ->
      let r = Array.make n params.pub in
      for j = 0 to m - 1 do
        let row = g.(j) and lo = ref 0 in
        for i = 1 to n do
          if i = n || row.(i) then begin
            let c = step_cost j !lo (i - 1) in
            for k = !lo to i - 1 do
              if c > r.(k) then r.(k) <- c
            done;
            lo := i
          end
        done
      done;
      for i = 0 to n - 1 do
        total := !total + r.(i)
      done);
  !total

let eval ?(params = default_params) oracle bp =
  check oracle bp;
  sweep params oracle (Breakpoints.unsafe_matrix bp)

let eval_matrix ?(params = default_params) (oracle : Interval_cost.t) g =
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  (* The checks of Breakpoints.of_matrix followed by [check]. *)
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Sync_cost.eval_matrix: " ^ msg)) fmt in
  if Array.length g = 0 then fail "no tasks";
  if Array.length g <> m then
    fail "plan has %d rows but instance has %d tasks" (Array.length g) m;
  if n = 0 then fail "no steps";
  for j = 0 to m - 1 do
    let row = g.(j) in
    if Array.length row <> n then
      fail "row %d has %d steps but instance has %d" j (Array.length row) n;
    if not row.(0) then
      fail "task %d lacks the mandatory step-0 hyperreconfiguration" j
  done;
  sweep params oracle g

let disabled_cost ?(pub = 0) ~n ~machine_width () = n * (machine_width + pub)
