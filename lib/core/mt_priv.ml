type task = { name : string; local_trace : Trace.t; priv_demand : int array }

type t = { tasks : task array; g_total : int; w : int; n : int }

let make ~g_total ~w tasks =
  if Array.length tasks = 0 then invalid_arg "Mt_priv.make: no tasks";
  if g_total < 0 || w < 0 then invalid_arg "Mt_priv.make: negative g_total/w";
  let n = Trace.length tasks.(0).local_trace in
  Array.iter
    (fun tk ->
      if Trace.length tk.local_trace <> n || Array.length tk.priv_demand <> n then
        invalid_arg "Mt_priv.make: trace/demand length mismatch";
      Array.iter
        (fun d ->
          if d < 0 then invalid_arg "Mt_priv.make: negative demand";
          if d > g_total then
            invalid_arg
              (Printf.sprintf "Mt_priv.make: task %s demands %d > g_total=%d" tk.name
                 d g_total))
        tk.priv_demand)
    tasks;
  { tasks = Array.copy tasks; g_total; w; n }

let num_tasks t = Array.length t.tasks
let steps t = t.n

let peak_demand t j lo hi =
  if lo < 0 || hi >= t.n || lo > hi then invalid_arg "Mt_priv.peak_demand: bad range";
  let d = t.tasks.(j).priv_demand in
  let rec go i acc = if i > hi then acc else go (i + 1) (max acc d.(i)) in
  go lo 0

let feasible_assignment t lo hi =
  let a = Array.init (num_tasks t) (fun j -> peak_demand t j lo hi) in
  if Array.fold_left ( + ) 0 a <= t.g_total then Some a else None

let segment_oracle t lo hi ~assignment =
  let m = num_tasks t in
  if Array.length assignment <> m then invalid_arg "Mt_priv.segment_oracle: arity";
  let len = hi - lo + 1 in
  let unions =
    Interval_cost.of_task_set
      (Task_set.make
         (Array.init m (fun j ->
              Task_set.task ~name:(string_of_int j) (Trace.sub t.tasks.(j).local_trace lo hi))))
  in
  let v =
    Array.init m (fun j ->
        assignment.(j) + Switch_space.size (Trace.space t.tasks.(j).local_trace))
  in
  let step_cost j a b =
    unions.Interval_cost.step_cost j a b + peak_demand t j (lo + a) (lo + b)
  in
  Interval_cost.make ~m ~n:len ~v ~step_cost

let default_optimize oracle =
  let start = (Mt_greedy.best oracle).Mt_greedy.bp in
  let r = Mt_local.solve ~init:start oracle in
  (r.Mt_local.cost, r.Mt_local.bp)

(* Greedy segmentation: extend the segment while the peak-demand
   assignment still fits.  Peak demands only grow as the segment
   extends, so the sweep is linear in n·m. *)
let segment_boundaries t =
  let m = num_tasks t in
  let step_demands i = Array.init m (fun j -> t.tasks.(j).priv_demand.(i)) in
  let check_single_step i d =
    if Array.fold_left ( + ) 0 d > t.g_total then
      invalid_arg
        (Printf.sprintf
           "Mt_priv: step %d's total demand already exceeds g_total — no \
            assignment is feasible"
           i)
  in
  let rec go lo i peaks acc =
    if i >= t.n then List.rev ((lo, t.n - 1) :: acc)
    else
      let peaks' = Array.mapi (fun j p -> max p t.tasks.(j).priv_demand.(i)) peaks in
      if Array.fold_left ( + ) 0 peaks' <= t.g_total then go lo (i + 1) peaks' acc
      else begin
        let fresh = step_demands i in
        check_single_step i fresh;
        go i (i + 1) fresh ((lo, i - 1) :: acc)
      end
  in
  let init_peaks = step_demands 0 in
  check_single_step 0 init_peaks;
  go 0 1 init_peaks []

type plan = {
  cost : int;
  segments : (int * int * int array) list;
  segment_costs : int list;
}

let solve ?(optimize = default_optimize) t =
  let bounds = segment_boundaries t in
  let segments =
    List.map
      (fun (lo, hi) ->
        match feasible_assignment t lo hi with
        | Some a -> (lo, hi, a)
        | None -> assert false (* the sweep only emits feasible segments *))
      bounds
  in
  let segment_costs =
    List.map
      (fun (lo, hi, a) ->
        let oracle = segment_oracle t lo hi ~assignment:a in
        fst (optimize oracle))
      segments
  in
  let cost =
    List.fold_left (fun acc c -> acc + t.w + c) 0 segment_costs
  in
  { cost; segments; segment_costs }
