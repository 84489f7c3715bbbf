type outcome = {
  cost : int;
  bp : Breakpoints.t;
  exact : bool;
  states_explored : int;
  cut_off : bool;
}

exception Cut

let solve ?(params = Sync_cost.default_params) ?upper_bound
    ?(budget = Hr_util.Budget.unlimited) (oracle : Interval_cost.t) =
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  let sc = oracle.Interval_cost.step_cost and v = oracle.Interval_cost.v in
  (* Exactness needs the full fan-out of n end choices per restarting
     task; refuse instances whose very first level would not fit. *)
  if not (Dp_frontier.exact_fits ~m ~n) then
    invalid_arg
      "Mt_dp.solve: instance too large for the exact DP (n^m initial states); \
       use Mt_ga/Mt_anneal";
  let hyper_par = params.Sync_cost.hyper = Sync_cost.Task_parallel in
  let reconf_par = params.Sync_cost.reconf = Sync_cost.Task_parallel in
  let pub = params.Sync_cost.pub in
  (* [combine_reconf c off] combines the per-task step costs
     [c.(off) .. c.(off + m - 1)] under the reconfiguration upload
     mode. *)
  let combine_reconf costs off =
    if reconf_par then begin
      let r = ref pub in
      for t = off to off + m - 1 do
        if costs.(t) > !r then r := costs.(t)
      done;
      !r
    end
    else begin
      let r = ref pub in
      for t = off to off + m - 1 do
        r := !r + costs.(t)
      done;
      !r
    end
  in
  (* suffix.(i) = Σ_{k=i}^{n-1} (reconf lower bound of step k): each step
     pays at least the combined per-requirement costs. *)
  let suffix = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) + combine_reconf (Array.init m (fun j -> sc j i i)) 0
  done;
  let explored = ref 0 in
  let cut = ref false in
  let ub = Option.value upper_bound ~default:max_int in
  (* A state's vector holds its per-task block ends (fields [0 .. m-1],
     [-1] before the first block) and then the per-step costs of those
     blocks (fields [m .. 2m-1]).  Its future depends only on the block
     ends, so they key the Pareto buckets: [buckets.(b)] lists the
     states of the level being built whose ends have key number [b]. *)
  let w = 2 * m in
  let index = Dp_frontier.Index.create ~fields:m in
  let buckets = ref (Array.make 16 []) in
  (* Are the costs [a.(oa + m + t ..)] component-wise <= the costs
     [b.(ob + m + t ..)]? *)
  let rec costs_le (a : int array) oa (b : int array) ob t =
    t >= m || (a.(oa + m + t) <= b.(ob + m + t) && costs_le a oa b ob (t + 1))
  in
  (* Incremental Pareto maintenance: a candidate is inserted only if no
     bucket member weakly dominates it (covers exact duplicates too),
     and evicts the members it weakly dominates — the surviving set is
     exactly the Pareto filter of the whole level. *)
  let insert (next : Dp_frontier.level) cand acc_v brk =
    let b = Dp_frontier.Index.find_or_add index cand in
    if b = Array.length !buckets then begin
      let grown = Array.make (2 * b) [] in
      Array.blit !buckets 0 grown 0 b;
      buckets := grown
    end;
    let members = !buckets.(b) in
    let dominated =
      List.exists
        (fun s -> next.acc.(s) <= acc_v && costs_le next.vec (s * w) cand 0 0)
        members
    in
    if not dominated then begin
      let kept =
        List.filter
          (fun s ->
            let dom = acc_v <= next.acc.(s) && costs_le cand 0 next.vec (s * w) 0 in
            if dom then next.alive.(s) <- false;
            not dom)
          members
      in
      let s = Dp_frontier.push next cand ~acc:acc_v ~breaks:brk in
      !buckets.(b) <- s :: kept
    end
  in
  (* Expand a state across step [i]: tasks whose block ended at [i-1]
     (for the initial level: all tasks, signalled by end = -1) restart
     with a new block end, then the step's costs are charged.  The
     odometer walks the cross-product of the restarting tasks' block
     ends (every step from [i] on) on one scratch vector; states are
     copied only when they survive dominance insertion. *)
  let scratch = Array.make w 0 in
  let restart_buf = Array.make m 0 in
  let emitted = ref 0 in
  let expand (cur : Dp_frontier.level) si i next =
    Array.blit cur.vec (si * w) scratch 0 w;
    let nrestart = ref 0 in
    for j = 0 to m - 1 do
      if scratch.(j) = i - 1 then begin
        restart_buf.(!nrestart) <- j;
        incr nrestart
      end
    done;
    let nrestart = !nrestart in
    let hyper = ref 0 in
    for r = 0 to nrestart - 1 do
      let vj = v.(restart_buf.(r)) in
      if hyper_par then begin
        if vj > !hyper then hyper := vj
      end
      else hyper := !hyper + vj
    done;
    let brk = ref cur.breaks.(si) in
    for r = 0 to nrestart - 1 do
      brk := (restart_buf.(r), i) :: !brk
    done;
    let brk = !brk in
    let acc0 = cur.acc.(si) + !hyper in
    let bound = suffix.(i + 1) in
    let rec go r =
      if r = nrestart then begin
        incr emitted;
        if !emitted land Dp_frontier.poll_mask = 0 && Hr_util.Budget.exhausted budget
        then raise Cut;
        let acc_v = acc0 + combine_reconf scratch m in
        if acc_v + bound <= ub then insert next scratch acc_v brk
      end
      else begin
        let j = restart_buf.(r) in
        for hi = i to n - 1 do
          scratch.(j) <- hi;
          scratch.(m + j) <- sc j i hi;
          go (r + 1)
        done
      end
    in
    go 0
  in
  (* Budget cut-off: finish a state deterministically by giving every
     task that restarts from step [i] onwards the run-to-the-end block.
     O(n·m), always admissible, never exact. *)
  let finish_cheaply i0 st acc0 breaks0 =
    let acc = ref acc0 and breaks = ref breaks0 in
    for i = i0 to n - 1 do
      let hyper = ref 0 in
      for j = 0 to m - 1 do
        if st.(j) = i - 1 then begin
          (if hyper_par then begin
             if v.(j) > !hyper then hyper := v.(j)
           end
           else hyper := !hyper + v.(j));
          st.(j) <- n - 1;
          st.(m + j) <- sc j i (n - 1);
          breaks := (j, i) :: !breaks
        end
      done;
      acc := !acc + !hyper + combine_reconf st m
    done;
    (!acc, !breaks)
  in
  (* Collapse the frontier to its most promising state and complete it
     cheaply: a best-so-far plan in O(n·m) instead of the remaining
     exponential expansion. *)
  let collapse (cur : Dp_frontier.level) i =
    cut := true;
    let b = Dp_frontier.best cur in
    if b < 0 then None
    else Some (finish_cheaply i (Array.sub cur.vec (b * w) w) cur.acc.(b) cur.breaks.(b))
  in
  let rec advance i (cur : Dp_frontier.level) next =
    if i >= n then begin
      let b = Dp_frontier.best cur in
      if b < 0 then None else Some (cur.acc.(b), cur.breaks.(b))
    end
    else if Hr_util.Budget.exhausted budget then collapse cur i
    else begin
      Dp_frontier.clear next;
      Array.fill !buckets 0 (Dp_frontier.Index.count index) [];
      Dp_frontier.Index.reset index ~lo:(-1) ~hi:(n - 1);
      match
        (* [cur] was compacted, so every state in it is live. *)
        for si = 0 to cur.len - 1 do
          expand cur si i next
        done
      with
      | () ->
          Dp_frontier.compact next;
          explored := !explored + next.len;
          advance (i + 1) next cur
      | exception Cut -> collapse cur i
    end
  in
  let cur = Dp_frontier.create ~width:w 1024 and next = Dp_frontier.create ~width:w 1024 in
  Array.fill scratch 0 m (-1);
  ignore (Dp_frontier.push cur scratch ~acc:0 ~breaks:[]);
  match advance 0 cur next with
  | None ->
      (* Can only happen when the given upper bound was unachievable. *)
      invalid_arg "Mt_dp.solve: upper_bound below the optimum"
  | Some (cost, breaks) ->
      let rows = Array.make m [] in
      List.iter (fun (j, i) -> rows.(j) <- i :: rows.(j)) breaks;
      {
        cost;
        bp = Breakpoints.of_rows ~m ~n rows;
        (* A budget cut-off forfeits the certificate. *)
        exact = not !cut;
        states_explored = !explored;
        cut_off = !cut;
      }
