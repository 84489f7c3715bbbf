module Budget = Hr_util.Budget

type t = {
  problem : Problem.t;
  n_done : int;
  level : Dp_frontier.level;
      (* width m: each task's open-block start; [acc] is the cost
         charged for steps 0 .. n_done-1.  Never mutated: [advance]
         works on a copy. *)
  explored : int;
  cut : bool;
}

let horizon t = t.n_done
let frontier (t : t) = t.level.len
let states_explored t = t.explored
let best_cost t = t.level.acc.(Dp_frontier.best t.level)

let supports p =
  p.Problem.mode = Mixed_sync.Fully_synchronized
  && p.Problem.params.Sync_cost.reconf = Sync_cost.Task_sequential
  && Problem.n p >= 1
  && Problem.m p <= 12

let exact_ok p = Dp_frontier.exact_fits ~m:(Problem.m p) ~n:(Problem.n p)

exception Cut

let combine params v mask m =
  match (params.Sync_cost.hyper : Sync_cost.upload) with
  | Task_parallel ->
      let best = ref 0 in
      for j = 0 to m - 1 do
        if mask land (1 lsl j) <> 0 && v.(j) > !best then best := v.(j)
      done;
      !best
  | Task_sequential ->
      let s = ref 0 in
      for j = 0 to m - 1 do
        if mask land (1 lsl j) <> 0 then s := !s + v.(j)
      done;
      !s

(* The history of a state that restarts the tasks in [mask] at step
   [i]. *)
let restart_breaks breaks mask i m =
  let l = ref breaks in
  for j = 0 to m - 1 do
    if mask land (1 lsl j) <> 0 then l := (j, i) :: !l
  done;
  !l

(* Run the DP across steps [t.n_done .. upto-1] of [problem] (>= 1:
   step 0 is laid down by [start]).  The level loop is oblivious to
   [upto], so a prefix run followed by [extend] performs exactly the
   computations of a full run — the basis of the bit-identical
   incremental ≡ full guarantee. *)
let advance ~budget (t : t) problem ~upto =
  let m = Problem.m problem in
  let oracle = problem.Problem.oracle in
  let sc = oracle.Interval_cost.step_cost in
  let params = problem.Problem.params in
  let pub = params.Sync_cost.pub in
  let masks =
    if problem.Problem.machine_class = Problem.All_task then
      [| 0; (1 lsl m) - 1 |]
    else Array.init (1 lsl m) Fun.id
  in
  let nmasks = Array.length masks in
  let hyper_of = Array.make (1 lsl m) 0 in
  Array.iter
    (fun mask -> hyper_of.(mask) <- combine params oracle.Interval_cost.v mask m)
    masks;
  let cur = ref (Dp_frontier.copy t.level) in
  let nxt = ref (Dp_frontier.create ~width:m 1024) in
  let index = Dp_frontier.Index.create ~fields:m in
  let scratch = Array.make m 0 in
  let explored = ref t.explored in
  let cut = ref t.cut in
  let emitted = ref 0 in
  let step_done = ref t.n_done in
  (try
     for i = t.n_done to upto - 1 do
       step_done := i;
       if Budget.exhausted budget then raise Cut;
       let cur_l = !cur and nxt_l = !nxt in
       Dp_frontier.clear nxt_l;
       Dp_frontier.Index.reset index ~lo:0 ~hi:i;
       for s = 0 to cur_l.len - 1 do
         let base = s * m in
         for mi = 0 to nmasks - 1 do
           let mask = masks.(mi) in
           incr emitted;
           if !emitted land Dp_frontier.poll_mask = 0 && Budget.exhausted budget then
             raise Cut;
           let chg = ref (pub + hyper_of.(mask)) in
           for j = 0 to m - 1 do
             if mask land (1 lsl j) <> 0 then begin
               scratch.(j) <- i;
               chg := !chg + sc j i i
             end
             else begin
               let lo = cur_l.vec.(base + j) in
               scratch.(j) <- lo;
               chg :=
                 !chg + ((i - lo + 1) * sc j lo i) - ((i - lo) * sc j lo (i - 1))
             end
           done;
           let acc' = cur_l.acc.(s) + !chg in
           (* One slot per start vector, numbered in emission order. *)
           let sl = Dp_frontier.Index.find_or_add index scratch in
           if sl = nxt_l.len then
             ignore
               (Dp_frontier.push nxt_l scratch ~acc:acc'
                  ~breaks:(restart_breaks cur_l.breaks.(s) mask i m))
           else if acc' < nxt_l.acc.(sl) then begin
             (* Equal start vectors have identical futures: keep the
                strictly cheaper one (ties keep the first emission, for
                determinism). *)
             nxt_l.acc.(sl) <- acc';
             nxt_l.breaks.(sl) <- restart_breaks cur_l.breaks.(s) mask i m
           end
         done
       done;
       (* Slots are replaced in place, never tombstoned, so every
          state of the level is live. *)
       explored := !explored + nxt_l.len;
       cur := nxt_l;
       nxt := cur_l;
       step_done := i + 1
     done
   with Cut ->
     (* Deadline: collapse to the cheapest state at the last completed
        horizon and fast-forward the remaining steps with no further
        restarts — cheap, admissible, marked cut off. *)
     cut := true;
     let lv = !cur in
     let b = Dp_frontier.best lv in
     let starts = Array.sub lv.vec (b * m) m in
     let acc = ref lv.acc.(b) in
     for i = !step_done to upto - 1 do
       let chg = ref pub in
       for j = 0 to m - 1 do
         let lo = starts.(j) in
         chg := !chg + ((i - lo + 1) * sc j lo i) - ((i - lo) * sc j lo (i - 1))
       done;
       acc := !acc + !chg
     done;
     let breaks = lv.breaks.(b) in
     Dp_frontier.clear lv;
     ignore (Dp_frontier.push lv starts ~acc:!acc ~breaks));
  {
    problem;
    n_done = upto;
    level = Dp_frontier.copy !cur;
    explored = !explored;
    cut = !cut;
  }

let start ?(budget = Budget.unlimited) problem =
  if not (supports problem) then
    invalid_arg
      "Online_dp.start: needs the fully synchronized mode, task-sequential \
       reconfiguration uploads, and m <= 12";
  if not (exact_ok problem) then
    invalid_arg "Online_dp.start: exact frontier too large (n^m > 2e6)";
  let m = Problem.m problem and n = Problem.n problem in
  let oracle = problem.Problem.oracle in
  let params = problem.Problem.params in
  let v = oracle.Interval_cost.v in
  (* Step 0: column 0 is all-true — every task restarts. *)
  let full = (1 lsl m) - 1 in
  let acc0 = ref (params.Sync_cost.w + params.Sync_cost.pub + combine params v full m) in
  for j = 0 to m - 1 do
    acc0 := !acc0 + oracle.Interval_cost.step_cost j 0 0
  done;
  let level = Dp_frontier.create ~width:m 1 in
  ignore
    (Dp_frontier.push level (Array.make m 0) ~acc:!acc0
       ~breaks:(restart_breaks [] full 0 m));
  let t0 = { problem; n_done = 1; level; explored = 1; cut = false } in
  if n = 1 then t0 else advance ~budget t0 problem ~upto:n

let extend ?(budget = Budget.unlimited) t problem' =
  let m = Problem.m t.problem in
  let fail msg = invalid_arg ("Online_dp.extend: " ^ msg) in
  if Problem.m problem' <> m then fail "task count changed";
  if Problem.n problem' < t.n_done then fail "horizon shrank";
  if not (supports problem') then
    fail "extended problem is unsupported (mode/uploads/m)";
  if problem'.Problem.params <> t.problem.Problem.params then
    fail "parameters changed";
  if problem'.Problem.machine_class <> t.problem.Problem.machine_class then
    fail "machine class changed";
  let v = t.problem.Problem.oracle.Interval_cost.v in
  if problem'.Problem.oracle.Interval_cost.v <> v then
    fail "per-task hyperreconfiguration costs changed";
  if not (exact_ok problem') then
    fail "exact frontier too large (n^m > 2e6) at the new horizon";
  (* Spot-check the prefix-agreement contract: the appended oracle must
     cost the old steps exactly as before. *)
  let old_sc = t.problem.Problem.oracle.Interval_cost.step_cost in
  let new_sc = problem'.Problem.oracle.Interval_cost.step_cost in
  let hi = t.n_done - 1 in
  for j = 0 to m - 1 do
    if old_sc j 0 hi <> new_sc j 0 hi || old_sc j hi hi <> new_sc j hi hi then
      fail "oracle disagrees with the prefix (not a trace extension)"
  done;
  if Problem.n problem' = t.n_done then { t with problem = problem' }
  else advance ~budget t problem' ~upto:(Problem.n problem')

let solution t =
  let best = Dp_frontier.best t.level in
  let m = Problem.m t.problem in
  let rows = Array.make m [] in
  List.iter (fun (j, i) -> rows.(j) <- i :: rows.(j)) t.level.breaks.(best);
  let bp = Breakpoints.of_rows ~m ~n:t.n_done rows in
  let cost = Problem.eval t.problem bp in
  Solution.make ~solver:"online-dp" ~exact:(not t.cut) ~cut_off:t.cut
    ~stats:
      [
        ("states", string_of_int t.explored);
        ("frontier", string_of_int t.level.len);
      ]
    ~cost bp
