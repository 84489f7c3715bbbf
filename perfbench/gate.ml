(* The correctness gate, run after the timed phase on every response
   line: the line must parse back with ok:true, its plan re-priced
   against the case's reference problem must cost what the line
   reports, the winner must be the cheapest contestant, and an
   exact-marked winner must never be beaten. *)

open Hr_core
module J = Telemetry

let ( let* ) = Result.bind
let field name = function J.Obj f -> List.assoc_opt name f | _ -> None

let plan_rows = function
  | Some (J.List rows) -> (
      try
        Ok
          (Array.of_list
             (List.map
                (function
                  | J.List steps ->
                      List.map (function J.Int i -> i | _ -> raise Exit) steps
                  | _ -> raise Exit)
                rows))
      with Exit -> Error "malformed plan")
  | _ -> Error "missing plan"

(* [check ~reference line] is the winning cost, or why the line fails. *)
let check ~reference line =
  let* doc = J.json_of_string line in
  let* () =
    match (field "ok" doc, field "error" doc) with
    | Some (J.Bool true), _ -> Ok ()
    | _, Some (J.String e) -> Error ("error response: " ^ e)
    | _ -> Error "ok is not true"
  in
  let* cost =
    match field "cost" doc with Some (J.Int c) -> Ok c | _ -> Error "missing cost"
  in
  let* exact =
    match field "exact" doc with Some (J.Bool b) -> Ok b | _ -> Error "missing exact"
  in
  let* rows = plan_rows (field "plan" doc) in
  let m = Problem.m reference and n = Problem.n reference in
  let* bp =
    match Breakpoints.of_rows ~m ~n rows with
    | bp -> Ok bp
    | exception Invalid_argument e -> Error e
  in
  let* () =
    if Problem.admissible reference bp then Ok () else Error "inadmissible plan"
  in
  let repriced = Problem.eval reference bp in
  let* () =
    if repriced = cost then Ok ()
    else Error (Printf.sprintf "reported cost %d, re-priced %d" cost repriced)
  in
  let* contestants =
    match field "solvers" doc with Some (J.List l) -> Ok l | _ -> Error "missing solvers"
  in
  let costs =
    List.filter_map
      (fun s ->
        match (field "name" s, field "cost" s) with
        | Some (J.String name), Some (J.Int c) -> Some (name, c)
        | _ -> None)
      contestants
  in
  let* () =
    match List.find_opt (fun (_, c) -> c < cost) costs with
    | Some (name, c) when exact ->
        Error (Printf.sprintf "exact winner (cost %d) beaten by %s (cost %d)" cost name c)
    | Some (name, c) ->
        Error (Printf.sprintf "winner (cost %d) is not the cheapest: %s has %d" cost name c)
    | None -> Ok ()
  in
  if List.exists (fun (_, c) -> c = cost) costs then Ok cost
  else Error "no contestant reports the winning cost"

(* [untimed line] is [line] with every wall_ms field zeroed: the bytes
   [Protocol.response_line ~timing:false] renders for the same
   response. *)
let untimed line =
  let rec zero = function
    | J.Obj f ->
        J.Obj (List.map (fun (k, v) -> if k = "wall_ms" then (k, J.Float 0.) else (k, zero v)) f)
    | J.List l -> J.List (List.map zero l)
    | j -> j
  in
  match J.json_of_string line with Ok doc -> J.json_to_string (zero doc) | Error _ -> line

(* Tampered copies of a good line, for the gate's own self-check. *)

let edit line f =
  match J.json_of_string line with
  | Ok (J.Obj fields) -> J.json_to_string (J.Obj (List.map f fields))
  | _ -> invalid_arg "Gate.edit: not a JSON object"

(* Toggles step 1 of task 0's plan, leaving the reported cost alone. *)
let flip_breakpoint line =
  edit line (function
    | "plan", J.List (J.List first :: rest) ->
        let steps = List.filter_map (function J.Int i -> Some i | _ -> None) first in
        let steps =
          if List.mem 1 steps then List.filter (( <> ) 1) steps
          else List.sort compare (1 :: steps)
        in
        ("plan", J.List (J.List (List.map (fun i -> J.Int i) steps) :: rest))
    | kv -> kv)

let bump_cost line =
  edit line (function "cost", J.Int c -> ("cost", J.Int (c + 1)) | kv -> kv)
