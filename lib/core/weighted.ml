module Bitset = Hr_util.Bitset

let check_weights ~width weights =
  if Array.length weights <> width then
    invalid_arg "Weighted: weight vector arity mismatch";
  Array.iter
    (fun w -> if w <= 0 then invalid_arg "Weighted: weights must be positive")
    weights

let block_weight trace ~weights lo hi =
  let width = Switch_space.size (Trace.space trace) in
  check_weights ~width weights;
  Bitset.fold (fun x acc -> acc + weights.(x)) (Trace.range_union trace lo hi) 0

let oracle ts ~weights =
  let m = Task_set.num_tasks ts in
  if Array.length weights <> m then invalid_arg "Weighted.oracle: |weights| <> m";
  Array.iteri
    (fun j w ->
      check_weights ~width:(Switch_space.size (Trace.space (Task_set.get ts j).Task_set.trace)) w)
    weights;
  let v = Array.map (Array.fold_left ( + ) 0) weights in
  Interval_cost.of_weighted ~v ~weights ts

let single ~v trace ~weights =
  check_weights ~width:(Switch_space.size (Trace.space trace)) weights;
  Interval_cost.of_weighted ~v:[| v |] ~weights:[| weights |]
    (Task_set.single ~name:"task" trace)
