(* Switch_space, Trace, interval-union sizes, Hypercontext, Task_set. *)

open Hr_core
module Bitset = Hr_util.Bitset
module Rng = Hr_util.Rng

let check = Alcotest.check
let int = Alcotest.int

let space8 = Switch_space.make 8

let mk reqs = Trace.of_lists space8 reqs

let test_space_names () =
  let u = Switch_space.make ~names:[| "a"; "b" |] 2 in
  check Alcotest.string "name" "b" (Switch_space.name u 1);
  check int "index_of_name" 0 (Switch_space.index_of_name u "a");
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Switch_space.make: names length mismatch") (fun () ->
      ignore (Switch_space.make ~names:[| "a" |] 2))

let test_trace_basics () =
  let t = mk [ [ 0; 1 ]; [ 1; 2 ]; [] ] in
  check int "length" 3 (Trace.length t);
  check int "req size" 2 (Bitset.cardinal (Trace.req t 0));
  check int "empty req" 0 (Bitset.cardinal (Trace.req t 2))

let test_trace_width_check () =
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Trace.make: requirement 0 has width 4, expected 8") (fun () ->
      ignore (Trace.make space8 [| Bitset.create 4 |]))

let test_range_union_values () =
  let t = mk [ [ 0 ]; [ 1 ]; [ 0; 2 ]; [ 3 ] ] in
  let size = (Interval_cost.of_single ~v:0 t).Interval_cost.step_cost 0 in
  check int "[0,0]" 1 (size 0 0);
  check int "[0,1]" 2 (size 0 1);
  check int "[0,2]" 3 (size 0 2);
  check int "[0,3]" 4 (size 0 3);
  check int "[1,2]" 3 (size 1 2);
  check int "[2,3]" 3 (size 2 3)

let test_range_union_matches_naive () =
  let rng = Rng.create 17 in
  let reqs =
    List.init 30 (fun _ ->
        List.filter (fun _ -> Rng.bool rng) (List.init 8 Fun.id))
  in
  let t = mk reqs in
  let size = (Interval_cost.of_single ~v:0 t).Interval_cost.step_cost 0 in
  let n = Trace.length t in
  for lo = 0 to n - 1 do
    for hi = lo to n - 1 do
      let naive = Bitset.cardinal (Trace.range_union t lo hi) in
      if size lo hi <> naive then
        Alcotest.failf "mismatch at [%d,%d]" lo hi
    done
  done

let test_trace_sub_concat () =
  let t = mk [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let a = Trace.sub t 0 1 and b = Trace.sub t 2 3 in
  let c = Trace.concat a b in
  check int "concat length" 4 (Trace.length c);
  for i = 0 to 3 do
    if not (Bitset.equal (Trace.req c i) (Trace.req t i)) then
      Alcotest.failf "step %d differs" i
  done

let test_trace_project () =
  let t = mk [ [ 0; 5 ]; [ 5; 6 ] ] in
  let keep = Bitset.of_list 8 [ 5; 6 ] in
  let to_space = Switch_space.make 2 in
  let renumber = function 5 -> 0 | 6 -> 1 | _ -> assert false in
  let p = Trace.project t keep ~to_space ~renumber in
  Alcotest.(check (list int)) "step 0" [ 0 ] (Bitset.to_list (Trace.req p 0));
  Alcotest.(check (list int)) "step 1" [ 0; 1 ] (Bitset.to_list (Trace.req p 1))

let test_hypercontext () =
  let h = Bitset.of_list 8 [ 0; 1; 2 ] in
  Alcotest.(check bool) "satisfies" true (Hypercontext.satisfies h (Bitset.of_list 8 [ 1 ]));
  Alcotest.(check bool) "violates" false
    (Hypercontext.satisfies h (Bitset.of_list 8 [ 3 ]));
  check int "cost" 3 (Hypercontext.cost h);
  check int "changeover" 2
    (Hypercontext.changeover h (Bitset.of_list 8 [ 0; 1; 3 ]))

let test_task_set_checks () =
  let t1 = Task_set.task ~name:"a" (mk [ [ 0 ]; [ 1 ] ]) in
  let t2 = Task_set.task ~name:"b" (mk [ [ 0 ] ]) in
  Alcotest.check_raises "ragged"
    (Invalid_argument
       "Task_set.make: task b has 1 steps, expected 2 (fully synchronized machine)")
    (fun () -> ignore (Task_set.make [| t1; t2 |]));
  let ts = Task_set.make [| t1 |] in
  check int "default v = |space|" 8 (Task_set.get ts 0).Task_set.v

let test_breakpoints_intervals () =
  let bp = Breakpoints.of_rows ~m:1 ~n:6 [| [ 3 ] |] in
  Alcotest.(check (list (pair int int))) "intervals" [ (0, 2); (3, 5) ]
    (Breakpoints.intervals bp 0);
  check (Alcotest.pair int int) "interval_of 4" (3, 5) (Breakpoints.interval_of bp 0 4);
  check (Alcotest.pair int int) "interval_of 0" (0, 2) (Breakpoints.interval_of bp 0 0);
  check int "break count" 2 (Breakpoints.break_count bp 0)

let test_breakpoints_column0 () =
  Alcotest.check_raises "column 0 mandatory"
    (Invalid_argument "Breakpoints: task 0 lacks the mandatory step-0 hyperreconfiguration")
    (fun () -> ignore (Breakpoints.of_matrix [| [| false; true |] |]));
  let bp = Breakpoints.create ~m:2 ~n:3 in
  Alcotest.check_raises "cannot clear col 0"
    (Invalid_argument "Breakpoints.set: column 0 is mandatory") (fun () ->
      ignore (Breakpoints.set bp 0 0 false))

let test_breakpoints_break_columns () =
  let bp = Breakpoints.of_rows ~m:2 ~n:5 [| [ 2 ]; [ 3 ] |] in
  Alcotest.(check (list int)) "columns" [ 0; 2; 3 ] (Breakpoints.break_columns bp)

let test_breakpoints_single_of_multi () =
  let bp = Breakpoints.of_rows ~m:2 ~n:5 [| [ 2 ]; [ 3 ] |] in
  let s = Breakpoints.single_of_multi bp in
  check int "one row" 1 (Breakpoints.m s);
  Alcotest.(check (list int)) "merged" [ 0; 2; 3 ] (Breakpoints.break_columns s)

let tests =
  [
    Alcotest.test_case "space names" `Quick test_space_names;
    Alcotest.test_case "trace basics" `Quick test_trace_basics;
    Alcotest.test_case "trace width check" `Quick test_trace_width_check;
    Alcotest.test_case "range union values" `Quick test_range_union_values;
    Alcotest.test_case "range union vs naive" `Quick test_range_union_matches_naive;
    Alcotest.test_case "trace sub/concat" `Quick test_trace_sub_concat;
    Alcotest.test_case "trace project" `Quick test_trace_project;
    Alcotest.test_case "hypercontext" `Quick test_hypercontext;
    Alcotest.test_case "task set checks" `Quick test_task_set_checks;
    Alcotest.test_case "breakpoints intervals" `Quick test_breakpoints_intervals;
    Alcotest.test_case "breakpoints column 0" `Quick test_breakpoints_column0;
    Alcotest.test_case "break columns" `Quick test_breakpoints_break_columns;
    Alcotest.test_case "single of multi" `Quick test_breakpoints_single_of_multi;
  ]
