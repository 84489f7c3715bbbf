module Bitset = Hr_util.Bitset

type explicit_hc = { name : string; init : int; cost : int; sat : Bitset.t -> bool }

type result = { cost : int; breaks : int list }

(* Shared block DP: f.(j) = best cost of covering steps 0..j-1, where
   [block_cost lo hi] is the best (init + cost·len) over admissible
   hypercontexts for the block, or None when unsatisfiable. *)
let block_dp ~n ~block_cost =
  let f = Array.make (n + 1) max_int in
  let choice = Array.make (n + 1) 0 in
  f.(0) <- 0;
  for j = 0 to n - 1 do
    for i = 0 to j do
      match block_cost i j with
      | None -> ()
      | Some c ->
          if f.(i) < max_int && f.(i) + c < f.(j + 1) then begin
            f.(j + 1) <- f.(i) + c;
            choice.(j + 1) <- i
          end
    done
  done;
  if f.(n) = max_int then
    invalid_arg "General_opt: some context requirement is satisfiable by no hypercontext";
  let rec collect j acc = if j = 0 then acc else collect choice.(j) (choice.(j) :: acc) in
  { cost = f.(n); breaks = collect n [] }

let solve_explicit hcs trace =
  let n = Trace.length trace in
  if n = 0 then invalid_arg "General_opt.solve_explicit: empty trace";
  if Array.length hcs = 0 then invalid_arg "General_opt.solve_explicit: no hypercontexts";
  (* alive.(lo) is refined incrementally; to keep the DP simple we
     precompute per-block best (value, hc index). *)
  let nh = Array.length hcs in
  let best = Array.init n (fun _ -> Array.make n None) in
  for lo = 0 to n - 1 do
    let alive = Array.make nh true in
    for hi = lo to n - 1 do
      let req = Trace.req trace hi in
      for h = 0 to nh - 1 do
        if alive.(h) && not (hcs.(h).sat req) then alive.(h) <- false
      done;
      let len = hi - lo + 1 in
      let b = ref None in
      for h = 0 to nh - 1 do
        if alive.(h) then begin
          let c = hcs.(h).init + (hcs.(h).cost * len) in
          match !b with
          | Some (c', _) when c' <= c -> ()
          | _ -> b := Some (c, h)
        end
      done;
      best.(lo).(hi) <- !b
    done
  done;
  let r =
    block_dp ~n ~block_cost:(fun lo hi ->
        Option.map fst best.(lo).(hi))
  in
  let rec blocks = function
    | [] -> []
    | [ lo ] -> [ (lo, n - 1) ]
    | lo :: (next :: _ as rest) -> (lo, next - 1) :: blocks rest
  in
  let chosen =
    List.map
      (fun (lo, hi) ->
        match best.(lo).(hi) with Some (_, h) -> h | None -> assert false)
      (blocks r.breaks)
  in
  (r, chosen)

let solve_monotone ~init ~cost trace =
  let n = Trace.length trace in
  if n = 0 then invalid_arg "General_opt.solve_monotone: empty trace";
  (* Materialize block unions once per lo-row, like the dense
     Interval_cost sweep but keeping the sets because the cost oracles
     need them. *)
  let unions = Array.init n (fun _ -> Array.make n None) in
  for lo = 0 to n - 1 do
    let acc = ref (Bitset.copy (Trace.req trace lo)) in
    unions.(lo).(lo) <- Some !acc;
    for hi = lo + 1 to n - 1 do
      acc := Bitset.union_into ~into:(Bitset.copy !acc) (Trace.req trace hi);
      unions.(lo).(hi) <- Some !acc
    done
  done;
  block_dp ~n ~block_cost:(fun lo hi ->
      match unions.(lo).(hi) with
      | Some u -> Some (init u + (cost u * (hi - lo + 1)))
      | None -> None)

let subsets_of_width width =
  Seq.init (1 lsl width) (fun mask ->
      let rec bits i acc =
        if i >= width then acc
        else bits (i + 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
      in
      Bitset.of_list width (bits 0 []))

let solve_tiny ~init ~cost trace =
  let n = Trace.length trace in
  let width = Switch_space.size (Trace.space trace) in
  if width > 12 then invalid_arg "General_opt.solve_tiny: universe too large";
  if n > 10 then invalid_arg "General_opt.solve_tiny: trace too long";
  if n = 0 then invalid_arg "General_opt.solve_tiny: empty trace";
  let all_hcs = Array.of_seq (subsets_of_width width) in
  block_dp ~n ~block_cost:(fun lo hi ->
      let len = hi - lo + 1 in
      Array.fold_left
        (fun acc h ->
          let ok =
            let rec go i = i > hi || (Bitset.subset (Trace.req trace i) h && go (i + 1)) in
            go lo
          in
          if not ok then acc
          else
            let c = init h + (cost h * len) in
            match acc with Some c' when c' <= c -> acc | _ -> Some c)
        None all_hcs)
