open Hr_core

type oracle_spec =
  | Switch of { widths : int array; vs : int array; reqs : int list list array }
  | Weighted of {
      widths : int array;
      reqs : int list list array;
      weights : int array array;
    }
  | Dag of {
      num_contexts : int;
      w : int;
      costs : int array;
      sat_sizes : int array;
      seq : int array;
    }

type t = {
  spec : oracle_spec;
  params : Sync_cost.params;
  mode : Mixed_sync.mode;
  machine_class : Problem.machine_class;
  place : Hr_place.Fabric.t option;
}

let case_schema_version = "hyperreconf.case/1"
let schema_version = case_schema_version

let m t =
  match t.spec with
  | Switch { widths; _ } | Weighted { widths; _ } -> Array.length widths
  | Dag _ -> 1

let n t =
  match t.spec with
  | Switch { reqs; _ } | Weighted { reqs; _ } -> List.length reqs.(0)
  | Dag { seq; _ } -> Array.length seq

let task_set widths vs reqs =
  Task_set.make
    (Array.init (Array.length widths) (fun j ->
         Task_set.task
           ~name:(Printf.sprintf "T%d" j)
           ~v:vs.(j)
           (Trace.of_lists (Switch_space.make widths.(j)) reqs.(j))))

(* The oracle's partial-hyperreconfiguration costs, derivable from the
   spec without building the oracle (the cached fast path in [problem]
   needs them before — instead of — the O(m·n²) construction). *)
let oracle_v t =
  match t.spec with
  | Switch { vs; _ } -> Array.copy vs
  | Weighted { weights; _ } ->
      (* Weighted.oracle derives each v_j from the task's total local
         weight. *)
      Array.map (Array.fold_left ( + ) 0) weights
  | Dag { w; _ } -> [| w |]

let dag_model ~num_contexts ~w ~costs ~sat_sizes =
  let sats =
    Array.map (fun size -> Hr_util.Bitset.of_list num_contexts (List.init size Fun.id)) sat_sizes
  in
  Dag_model.chain ~num_contexts ~w ~costs ~sats

let build_oracle ?policy ?max_bytes t =
  match t.spec with
  | Switch { widths; vs; reqs } ->
      Interval_cost.of_task_set ?policy ?max_bytes (task_set widths vs reqs)
  | Weighted { widths; reqs; weights } ->
      (* The task-set vs are placeholders; see [oracle_v].  The weighted
         table is always built: there is no sparse weighted rung. *)
      let vs = Array.map (fun _ -> 0) widths in
      Weighted.oracle (task_set widths vs reqs) ~weights
  | Dag { num_contexts; w; costs; sat_sizes; seq } ->
      Dag_model.oracle ~v:[| w |] [| dag_model ~num_contexts ~w ~costs ~sat_sizes |] [| seq |]

let model_name t =
  match t.spec with Switch _ -> "switch" | Weighted _ -> "weighted" | Dag _ -> "dag"

let upload_name = function
  | Sync_cost.Task_parallel -> "parallel"
  | Sync_cost.Task_sequential -> "sequential"

let class_name = function
  | Problem.All_task -> "all-task"
  | Problem.Partial -> "partial"
  | Problem.Restricted -> "restricted"

let summary t =
  Format.asprintf "%s m=%d n=%d %s %a w=%d pub=%d hyper=%s reconf=%s%s"
    (model_name t) (m t) (n t)
    (class_name t.machine_class)
    Mixed_sync.pp_mode t.mode t.params.Sync_cost.w t.params.Sync_cost.pub
    (upload_name t.params.Sync_cost.hyper)
    (upload_name t.params.Sync_cost.reconf)
    (match t.place with
    | None -> ""
    | Some f -> " fabric " ^ Hr_place.Fabric.summary f)

(* ------------------------------------------------------------------ *)
(* JSON encoding.                                                      *)

open Telemetry

let ints arr = List (Array.to_list (Array.map (fun i -> Int i) arr))
let int_list l = List (List.map (fun i -> Int i) l)
let reqs_json reqs = List (Array.to_list (Array.map (fun task -> List (List.map int_list task)) reqs))

let spec_to_json = function
  | Switch { widths; vs; reqs } ->
      Obj
        [
          ("model", String "switch");
          ("widths", ints widths);
          ("vs", ints vs);
          ("reqs", reqs_json reqs);
        ]
  | Weighted { widths; reqs; weights } ->
      Obj
        [
          ("model", String "weighted");
          ("widths", ints widths);
          ("reqs", reqs_json reqs);
          ("weights", List (Array.to_list (Array.map ints weights)));
        ]
  | Dag { num_contexts; w; costs; sat_sizes; seq } ->
      Obj
        [
          ("model", String "dag");
          ("num_contexts", Int num_contexts);
          ("w", Int w);
          ("costs", ints costs);
          ("sat_sizes", ints sat_sizes);
          ("seq", ints seq);
        ]

let mode_name = function
  | Mixed_sync.Fully_synchronized -> "fully-synchronized"
  | Mixed_sync.Hypercontext_synchronized -> "hypercontext-synchronized"
  | Mixed_sync.Context_synchronized -> "context-synchronized"
  | Mixed_sync.Non_synchronized -> "non-synchronized"

let fabric_to_json (f : Hr_place.Fabric.t) =
  Obj
    [
      ("width", Int f.Hr_place.Fabric.width);
      ("sizes", ints f.Hr_place.Fabric.sizes);
      ( "windows",
        List
          (Array.to_list
             (Array.map
                (fun (a, d) -> List [ Int a; Int d ])
                f.Hr_place.Fabric.windows)) );
      ("reloc", ints f.Hr_place.Fabric.reloc);
    ]

let to_json t =
  Obj
    ([
       ("schema", String case_schema_version);
       ("oracle", spec_to_json t.spec);
       ( "params",
         Obj
           [
             ("w", Int t.params.Sync_cost.w);
             ("pub", Int t.params.Sync_cost.pub);
             ("hyper", String (upload_name t.params.Sync_cost.hyper));
             ("reconf", String (upload_name t.params.Sync_cost.reconf));
           ] );
       ("mode", String (mode_name t.mode));
       ("machine_class", String (class_name t.machine_class));
     ]
    @
    (* The "fabric" field is additive: plain cases serialize exactly as
       under schema /1 before the placement family existed. *)
    match t.place with
    | None -> []
    | Some f -> [ ("fabric", fabric_to_json f) ])

let to_string t = json_to_string (to_json t)

(* ------------------------------------------------------------------ *)
(* Problem building.                                                   *)

(* The Table_cache key: a digest of the canonical oracle-spec JSON —
   exactly the oracle inputs, nothing else (params/mode/class do not
   change the dense tables, so cases differing only there share one
   table file). *)
let oracle_key t = Digest.to_hex (Digest.string (json_to_string (spec_to_json t.spec)))

(* May a stored table stand in for the build at [cap] bytes?  Only when
   that build ends with a dense table, by its own constructor's rule: a
   switch case under [Auto] goes sparse once its 16-bit projection
   exceeds the cap, a DAG oracle stays direct once its table would
   ([precompute]'s rule, at the bound of the widest block: the cheapest
   node covering the whole trace), and a weighted table is always
   built.  A forced-sparse request never touches the cache. *)
let cacheable ?policy ~cap t =
  match (t.spec, policy) with
  | _, Some Interval_cost.Sparse -> false
  | Weighted _, _ | Switch _, Some Interval_cost.Dense -> true
  | Switch _, (None | Some Interval_cost.Auto) ->
      Interval_cost.projected_dense_bytes ~bound:0 ~m:(m t) ~n:(n t) <= cap
  | Dag { num_contexts; w; costs; sat_sizes; seq }, _ ->
      let model = dag_model ~num_contexts ~w ~costs ~sat_sizes in
      let top = Option.get (Dag_model.cheapest_for model (Array.to_list seq)) in
      let bound = (Dag_model.node model top).Dag_model.cost in
      Interval_cost.projected_dense_bytes ~bound ~m:1 ~n:(n t) <= cap

let problem ?max_table_bytes ?cache_dir ?oracle t =
  let mk = Problem.make ~params:t.params ~mode:t.mode ~machine_class:t.machine_class in
  let build () =
    mk ?max_bytes:max_table_bytes (build_oracle ?policy:oracle ?max_bytes:max_table_bytes t)
  in
  let cap = Option.value max_table_bytes ~default:Interval_cost.default_max_bytes in
  let p =
    match cache_dir with
    | Some dir when cacheable ?policy:oracle ~cap t -> (
        let cache = Table_cache.of_dir dir and key = oracle_key t in
        (* Warm path: the oracle straight from the mapped table.  The
           constructors are O(m·n²), so a hit skips them; m, n and v
           come from the spec in O(input). *)
        match Interval_cost.of_cache cache ~key ~m:(m t) ~n:(n t) ~v:(oracle_v t) with
        | Some o -> mk o
        | None ->
            let p = build () in
            Interval_cost.store cache ~key p.Problem.oracle;
            p)
    | _ -> build ()
  in
  (* The fabric extends the problem after the oracle is built — on the
     warm cache path too, since the dense tables are fabric-independent. *)
  match t.place with None -> p | Some f -> Hr_place.Joint.attach p f

(* ------------------------------------------------------------------ *)
(* JSON decoding with validation.  Everything funnels through [check]
   so a hand-edited corpus file fails with a message, never an
   exception from deep inside an oracle constructor. *)

let ( let* ) = Result.bind

let field name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error (Printf.sprintf "expected an object with field %S" name)

let as_int = function Int i -> Ok i | _ -> Error "expected an integer"
let as_string = function String s -> Ok s | _ -> Error "expected a string"
let as_list = function List l -> Ok l | _ -> Error "expected an array"

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let int_array j =
  let* l = as_list j in
  let* is = map_result as_int l in
  Ok (Array.of_list is)

let check cond msg = if cond then Ok () else Error msg

let in_field name r =
  Result.map_error (fun e -> Printf.sprintf "%s: %s" name e) r

let parse_reqs widths j =
  let* tasks = as_list j in
  let* reqs =
    map_result
      (fun task ->
        let* steps = as_list task in
        map_result
          (fun step ->
            let* ids = as_list step in
            map_result as_int ids)
          steps)
      tasks
  in
  let reqs = Array.of_list reqs in
  let* () =
    check (Array.length reqs = Array.length widths) "reqs arity <> widths arity"
  in
  let* () =
    check
      (Array.length reqs = 0
      || Array.for_all (fun r -> List.length r = List.length reqs.(0)) reqs)
      "tasks have different step counts"
  in
  let* () =
    check (Array.length reqs > 0 && List.length reqs.(0) >= 1) "need >= 1 step"
  in
  let ok_ids j ids = List.for_all (fun i -> i >= 0 && i < widths.(j)) ids in
  let* () =
    check
      (Array.for_all Fun.id (Array.mapi (fun j task -> List.for_all (ok_ids j) task) reqs))
      "switch index out of range"
  in
  Ok reqs

let spec_of_json j =
  let* model = in_field "model" (Result.bind (field "model" j) as_string) in
  match model with
  | "switch" ->
      let* widths = in_field "widths" (Result.bind (field "widths" j) int_array) in
      let* () = check (Array.length widths >= 1) "need >= 1 task" in
      let* () = check (Array.for_all (fun w -> w >= 1) widths) "widths must be >= 1" in
      let* vs = in_field "vs" (Result.bind (field "vs" j) int_array) in
      let* () = check (Array.length vs = Array.length widths) "vs arity <> widths arity" in
      let* () = check (Array.for_all (fun v -> v >= 0) vs) "vs must be >= 0" in
      let* reqs = in_field "reqs" (Result.bind (field "reqs" j) (parse_reqs widths)) in
      Ok (Switch { widths; vs; reqs })
  | "weighted" ->
      let* widths = in_field "widths" (Result.bind (field "widths" j) int_array) in
      let* () = check (Array.length widths >= 1) "need >= 1 task" in
      let* () = check (Array.for_all (fun w -> w >= 1) widths) "widths must be >= 1" in
      let* reqs = in_field "reqs" (Result.bind (field "reqs" j) (parse_reqs widths)) in
      let* weights =
        in_field "weights"
          (let* l = Result.bind (field "weights" j) as_list in
           let* ws = map_result int_array l in
           Ok (Array.of_list ws))
      in
      let* () =
        check (Array.length weights = Array.length widths) "weights arity <> widths arity"
      in
      let* () =
        check
          (Array.for_all Fun.id
             (Array.mapi (fun j ws -> Array.length ws = widths.(j)) weights))
          "weights.(j) arity <> widths.(j)"
      in
      let* () =
        check
          (Array.for_all (Array.for_all (fun w -> w >= 1)) weights)
          "weights must be >= 1"
      in
      Ok (Weighted { widths; reqs; weights })
  | "dag" ->
      let* num_contexts =
        in_field "num_contexts" (Result.bind (field "num_contexts" j) as_int)
      in
      let* () = check (num_contexts >= 1) "num_contexts must be >= 1" in
      let* w = in_field "w" (Result.bind (field "w" j) as_int) in
      let* () = check (w >= 0) "w must be >= 0" in
      let* costs = in_field "costs" (Result.bind (field "costs" j) int_array) in
      let* () = check (Array.length costs >= 1) "need >= 1 hypercontext" in
      let* () = check (Array.for_all (fun c -> c >= 1) costs) "costs must be >= 1" in
      let sorted arr cmp =
        let ok = ref true in
        for i = 0 to Array.length arr - 2 do
          if not (cmp arr.(i) arr.(i + 1)) then ok := false
        done;
        !ok
      in
      let* () = check (sorted costs ( <= )) "costs must be non-decreasing" in
      let* sat_sizes =
        in_field "sat_sizes" (Result.bind (field "sat_sizes" j) int_array)
      in
      let* () =
        check (Array.length sat_sizes = Array.length costs) "sat_sizes arity <> costs"
      in
      let* () = check (sorted sat_sizes ( < )) "sat_sizes must be strictly increasing" in
      let* () =
        check
          (Array.length sat_sizes > 0
          && sat_sizes.(0) >= 1
          && sat_sizes.(Array.length sat_sizes - 1) = num_contexts)
          "sat_sizes must end at num_contexts"
      in
      let* seq = in_field "seq" (Result.bind (field "seq" j) int_array) in
      let* () = check (Array.length seq >= 1) "need >= 1 step" in
      let* () =
        check
          (Array.for_all (fun c -> c >= 0 && c < num_contexts) seq)
          "seq entry out of context range"
      in
      Ok (Dag { num_contexts; w; costs; sat_sizes; seq })
  | other -> Error (Printf.sprintf "unknown model %S" other)

let upload_of_name = function
  | "parallel" -> Ok Sync_cost.Task_parallel
  | "sequential" -> Ok Sync_cost.Task_sequential
  | s -> Error (Printf.sprintf "unknown upload mode %S" s)

let mode_of_name = function
  | "fully-synchronized" -> Ok Mixed_sync.Fully_synchronized
  | "hypercontext-synchronized" -> Ok Mixed_sync.Hypercontext_synchronized
  | "context-synchronized" -> Ok Mixed_sync.Context_synchronized
  | "non-synchronized" -> Ok Mixed_sync.Non_synchronized
  | s -> Error (Printf.sprintf "unknown mode %S" s)

let class_of_name = function
  | "all-task" -> Ok Problem.All_task
  | "partial" -> Ok Problem.Partial
  | "restricted" -> Ok Problem.Restricted
  | s -> Error (Printf.sprintf "unknown machine class %S" s)

let of_json j =
  let* schema = in_field "schema" (Result.bind (field "schema" j) as_string) in
  let* () =
    check (schema = case_schema_version)
      (Printf.sprintf "schema %S, expected %S" schema case_schema_version)
  in
  let* oracle = field "oracle" j in
  let* spec = in_field "oracle" (spec_of_json oracle) in
  let* pj = field "params" j in
  let* w = in_field "params.w" (Result.bind (field "w" pj) as_int) in
  let* pub = in_field "params.pub" (Result.bind (field "pub" pj) as_int) in
  let* () = check (w >= 0 && pub >= 0) "params must be >= 0" in
  let* hyper =
    in_field "params.hyper"
      (Result.bind (Result.bind (field "hyper" pj) as_string) upload_of_name)
  in
  let* reconf =
    in_field "params.reconf"
      (Result.bind (Result.bind (field "reconf" pj) as_string) upload_of_name)
  in
  let* mode =
    in_field "mode" (Result.bind (Result.bind (field "mode" j) as_string) mode_of_name)
  in
  let* machine_class =
    in_field "machine_class"
      (Result.bind (Result.bind (field "machine_class" j) as_string) class_of_name)
  in
  let params = { Sync_cost.w; pub; hyper; reconf } in
  (* Problem.make's rules, checked here so a bad case surfaces as Error,
     not as Invalid_argument at build time. *)
  let* () = Problem.check_mode_params mode params in
  let partial = { spec; params; mode; machine_class; place = None } in
  match field "fabric" j with
  | Error _ -> Ok partial
  | Ok fj ->
      let* width = in_field "fabric.width" (Result.bind (field "width" fj) as_int) in
      let* sizes = in_field "fabric.sizes" (Result.bind (field "sizes" fj) int_array) in
      let* windows =
        in_field "fabric.windows"
          (let* l = Result.bind (field "windows" fj) as_list in
           let* ws =
             map_result
               (fun wj ->
                 let* pair = Result.bind (as_list wj) (map_result as_int) in
                 match pair with
                 | [ a; d ] -> Ok (a, d)
                 | _ -> Error "window must be a [start, end] pair")
               l
           in
           Ok (Array.of_list ws))
      in
      let* reloc = in_field "fabric.reloc" (Result.bind (field "reloc" fj) int_array) in
      let fabric = { Hr_place.Fabric.width; sizes; windows; reloc } in
      let* () =
        in_field "fabric"
          (let* () =
             check (Array.length sizes = m partial) "fabric arity <> task count"
           in
           Hr_place.Fabric.check ~n:(n partial) fabric)
      in
      Ok { partial with place = Some fabric }

let of_string s =
  let* j = json_of_string s in
  of_json j
