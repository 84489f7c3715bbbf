type result = { cost : int; breaks : int list }

let solve ~v ~n ~step_cost =
  if n < 1 then invalid_arg "St_opt.solve: n must be >= 1";
  if v < 0 then invalid_arg "St_opt.solve: negative v";
  (* f.(j) = optimal cost of covering steps 0..j-1; choice.(j) = start of
     the last block of an optimal cover. *)
  let f = Array.make (n + 1) max_int in
  let choice = Array.make (n + 1) 0 in
  f.(0) <- 0;
  for j = 0 to n - 1 do
    for i = 0 to j do
      let c = f.(i) + v + (step_cost i j * (j - i + 1)) in
      if c < f.(j + 1) then begin
        f.(j + 1) <- c;
        choice.(j + 1) <- i
      end
    done
  done;
  let rec collect j acc = if j = 0 then acc else collect choice.(j) (choice.(j) :: acc) in
  { cost = f.(n); breaks = collect n [] }

let blocks_of_breaks ~n breaks =
  match breaks with
  | [] -> invalid_arg "St_opt: empty breakpoint list"
  | 0 :: _ ->
      let rec go = function
        | [] -> []
        | [ lo ] -> [ (lo, n - 1) ]
        | lo :: (next :: _ as rest) ->
            if next <= lo || next > n - 1 then
              invalid_arg "St_opt: breakpoints not strictly ascending/in range";
            (lo, next - 1) :: go rest
      in
      go breaks
  | _ -> invalid_arg "St_opt: first breakpoint must be step 0"

let cost_of_breaks ~v ~n ~step_cost breaks =
  blocks_of_breaks ~n breaks
  |> List.fold_left
       (fun acc (lo, hi) -> acc + v + (step_cost lo hi * (hi - lo + 1)))
       0

let plan_of_breaks trace breaks =
  blocks_of_breaks ~n:(Trace.length trace) breaks
  |> List.map (fun (lo, hi) -> Trace.range_union trace lo hi)

let solve_trace ?v trace =
  let v = match v with Some v -> v | None -> Switch_space.size (Trace.space trace) in
  let oracle = Interval_cost.of_single ~v trace in
  let result = solve ~v ~n:(Trace.length trace) ~step_cost:(oracle.Interval_cost.step_cost 0) in
  (result, plan_of_breaks trace result.breaks)

let solve_bounded ~v ~n ~step_cost ~max_blocks =
  if n < 1 then invalid_arg "St_opt.solve_bounded: n must be >= 1";
  if max_blocks < 1 then invalid_arg "St_opt.solve_bounded: need at least one block";
  let kmax = min max_blocks n in
  (* f.(k).(j) = best cost of covering steps 0..j-1 with exactly <= k
     blocks; choice for reconstruction. *)
  let f = Array.make_matrix (kmax + 1) (n + 1) max_int in
  let choice = Array.make_matrix (kmax + 1) (n + 1) 0 in
  f.(0).(0) <- 0;
  for k = 1 to kmax do
    f.(k).(0) <- 0;
    for j = 0 to n - 1 do
      for i = 0 to j do
        if f.(k - 1).(i) < max_int then begin
          let c = f.(k - 1).(i) + v + (step_cost i j * (j - i + 1)) in
          if c < f.(k).(j + 1) then begin
            f.(k).(j + 1) <- c;
            choice.(k).(j + 1) <- i
          end
        end
      done
    done
  done;
  if f.(kmax).(n) = max_int then
    invalid_arg "St_opt.solve_bounded: infeasible (internal)";
  (* Walk back through the block count that achieved the optimum. *)
  let rec collect k j acc =
    if j = 0 then acc
    else
      (* Find the k' <= k whose table realized f.(k).(j): since f is
         non-increasing in k, the stored choice at level k is valid. *)
      collect (k - 1) choice.(k).(j) (choice.(k).(j) :: acc)
  in
  { cost = f.(kmax).(n); breaks = collect kmax n [] }

let frontier ~v ~n ~step_cost =
  let unconstrained = solve ~v ~n ~step_cost in
  let rec go k last acc =
    if k > n then List.rev acc
    else
      let r = solve_bounded ~v ~n ~step_cost ~max_blocks:k in
      let acc = if r.cost < last then (k, r.cost) :: acc else acc in
      if r.cost = unconstrained.cost then List.rev acc
      else go (k + 1) (min last r.cost) acc
  in
  go 1 max_int []

let solve_oracle (oracle : Interval_cost.t) ~task =
  solve ~v:oracle.Interval_cost.v.(task) ~n:oracle.Interval_cost.n
    ~step_cost:(fun lo hi -> oracle.Interval_cost.step_cost task lo hi)
