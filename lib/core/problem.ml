type machine_class = All_task | Partial | Restricted

type ext_data = ..

type extension = {
  tag : string;
  data : ext_data;
  extra_cost : Breakpoints.t -> int;
  scale : int -> extension;
  counters : unit -> (string * string) list;
}

type t = {
  oracle : Interval_cost.t;
  params : Sync_cost.params;
  mode : Mixed_sync.mode;
  machine_class : machine_class;
  ext : extension option;
}

let check_mode_params mode (params : Sync_cost.params) =
  match mode with
  | Mixed_sync.Fully_synchronized -> Ok ()
  | _ when params.Sync_cost.w <> 0 ->
      Error "nonzero w needs the fully synchronized mode"
  | _
    when params.Sync_cost.hyper <> Sync_cost.Task_parallel
         || params.Sync_cost.reconf <> Sync_cost.Task_parallel ->
      Error "sequential uploads need the fully synchronized mode"
  | _ when params.Sync_cost.pub <> 0 && mode <> Mixed_sync.Context_synchronized ->
      Error "pub > 0 needs context or full synchronization"
  | _ -> Ok ()

let make ?(params = Sync_cost.default_params)
    ?(mode = Mixed_sync.Fully_synchronized) ?(machine_class = Partial)
    ?(precompute = true) ?max_bytes ?ext oracle =
  (match check_mode_params mode params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Problem.make: " ^ msg));
  let oracle = if precompute then Interval_cost.precompute ?max_bytes oracle else oracle in
  { oracle; params; mode; machine_class; ext }

let plain t = Option.is_none t.ext
let with_ext t ext = { t with ext = Some ext }
let without_ext t = { t with ext = None }

let of_task_set ?params ?mode ?machine_class ts =
  make ?params ?mode ?machine_class (Interval_cost.of_task_set ts)

let of_trace ?v ?params trace =
  let v = match v with Some v -> v | None -> Switch_space.size (Trace.space trace) in
  make ?params (Interval_cost.of_single ~v trace)

let of_dag ?params model seq =
  make ?params (Dag_model.oracle ~v:[| Dag_model.w model |] [| model |] [| seq |])

let m t = t.oracle.Interval_cost.m
let n t = t.oracle.Interval_cost.n

let task t j =
  if j < 0 || j >= m t then invalid_arg "Problem.task: task index out of range";
  let o = t.oracle in
  let oracle =
    Interval_cost.make ~m:1 ~n:o.Interval_cost.n
      ~v:[| o.Interval_cost.v.(j) |]
      ~step_cost:(fun _ lo hi -> o.Interval_cost.step_cost j lo hi)
  in
  (* The parent tables are already dense; re-densifying a view would
     only copy them.  An extension's extra cost is a function of the
     full m-row matrix, so the single-task view drops it. *)
  { t with oracle; machine_class = Partial; ext = None }

let eval_base t bp =
  match t.mode with
  | Mixed_sync.Fully_synchronized -> Sync_cost.eval ~params:t.params t.oracle bp
  | mode -> Mixed_sync.eval ~mode ~pub:t.params.Sync_cost.pub t.oracle bp

let eval t bp =
  match t.ext with
  | None -> eval_base t bp
  | Some e -> eval_base t bp + e.extra_cost bp

let admissible t bp =
  match t.machine_class with
  | Partial | Restricted -> true
  | All_task ->
      let m = Breakpoints.m bp and n = Breakpoints.n bp in
      let uniform i =
        let b = Breakpoints.is_break bp 0 i in
        let rec go j = j >= m || (Breakpoints.is_break bp j i = b && go (j + 1)) in
        go 1
      in
      let rec cols i = i >= n || (uniform i && cols (i + 1)) in
      cols 0

let pp fmt t =
  Format.fprintf fmt "m=%d n=%d %s %a%s" (m t) (n t)
    (match t.machine_class with
    | All_task -> "all-task"
    | Partial -> "partial"
    | Restricted -> "restricted")
    Mixed_sync.pp_mode t.mode
    (match t.ext with None -> "" | Some e -> " +" ^ e.tag)
