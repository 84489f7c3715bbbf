(* Shared helpers for the test suites: small random instances and
   QCheck generators. *)

open Hr_core
module Bitset = Hr_util.Bitset

(* A compact description of a random multi-task instance, kept as plain
   data so QCheck can shrink and print it. *)
type mt_instance = {
  m : int;
  n : int;
  widths : int list;  (* local switch count per task *)
  vs : int list;  (* v_j per task *)
  reqs : int list list list;  (* per task, per step, switch indices *)
}

let show_mt_instance inst =
  Printf.sprintf "m=%d n=%d widths=[%s] vs=[%s] reqs=%s" inst.m inst.n
    (String.concat ";" (List.map string_of_int inst.widths))
    (String.concat ";" (List.map string_of_int inst.vs))
    (String.concat "|"
       (List.map
          (fun task ->
            String.concat ","
              (List.map
                 (fun req -> "{" ^ String.concat " " (List.map string_of_int req) ^ "}")
                 task))
          inst.reqs))

let task_set_of_instance inst =
  let tasks =
    List.mapi
      (fun j task_reqs ->
        let space = Switch_space.make (List.nth inst.widths j) in
        Task_set.task
          ~name:(Printf.sprintf "T%d" j)
          ~v:(List.nth inst.vs j)
          (Trace.of_lists space task_reqs))
      inst.reqs
  in
  Task_set.make (Array.of_list tasks)

let oracle_of_instance inst = Interval_cost.of_task_set (task_set_of_instance inst)

(* [union_sizes trace lo hi] = |U(lo,hi)|, read from the dense table. *)
let union_sizes trace = (Interval_cost.of_single ~v:0 trace).Interval_cost.step_cost 0

(* QCheck generator for instances small enough for Brute.multi:
   (n-1)*m <= 12. *)
let gen_mt_instance ~max_m ~max_n ~max_width =
  let open QCheck2.Gen in
  int_range 1 max_m >>= fun m ->
  int_range 1 (min max_n (1 + (12 / m))) >>= fun n ->
  list_repeat m (int_range 1 max_width) >>= fun widths ->
  list_repeat m (int_range 0 6) >>= fun vs ->
  let gen_task j =
    let width = List.nth widths j in
    list_repeat n (list_size (int_bound width) (int_bound (width - 1)))
  in
  let rec gen_tasks j acc =
    if j = m then return (List.rev acc)
    else gen_task j >>= fun t -> gen_tasks (j + 1) (t :: acc)
  in
  gen_tasks 0 [] >>= fun reqs -> return { m; n; widths; vs; reqs }

(* Single-task random trace as plain data. *)
type st_instance = { width : int; v : int; steps : int list list }

let show_st_instance inst =
  Printf.sprintf "width=%d v=%d steps=%s" inst.width inst.v
    (String.concat "|"
       (List.map (fun req -> String.concat "," (List.map string_of_int req)) inst.steps))

let trace_of_st inst =
  Trace.of_lists (Switch_space.make inst.width) inst.steps

let gen_st_instance ~max_n ~max_width =
  let open QCheck2.Gen in
  int_range 1 max_width >>= fun width ->
  int_range 0 8 >>= fun v ->
  int_range 1 max_n >>= fun n ->
  list_repeat n (list_size (int_bound width) (int_bound (width - 1))) >>= fun steps ->
  return { width; v; steps }

let prop name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~print gen f)

(* Deterministic sample instances used by non-qcheck tests. *)
let sample_task_set () =
  let s4 = Switch_space.make 4 and s3 = Switch_space.make 3 in
  Task_set.make
    [|
      Task_set.task ~name:"A" ~v:3
        (Trace.of_lists s4 [ [ 0 ]; [ 0; 1 ]; [ 2 ]; [ 2 ]; [ 3 ] ]);
      Task_set.task ~name:"B" ~v:2
        (Trace.of_lists s3 [ [ 1 ]; [ 1 ]; [ 0; 2 ]; [ 2 ]; [ 1 ] ]);
    |]
