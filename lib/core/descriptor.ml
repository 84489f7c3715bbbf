module Bitset = Hr_util.Bitset

type encoding = Bitmap | Sparse | Run_length

let bits_needed k =
  (* ⌈log₂ (k+1)⌉ with a floor of 1. *)
  let rec go b = if 1 lsl b > k then b else go (b + 1) in
  max 1 (go 0)

let runs h =
  let width = Bitset.width h in
  let count = ref 0 in
  let prev = ref false in
  for i = 0 to width - 1 do
    let b = Bitset.mem h i in
    if b <> !prev || i = 0 then incr count;
    prev := b
  done;
  max 1 !count

let size encoding h =
  let width = Bitset.width h in
  let addr = bits_needed width in
  match encoding with
  | Bitmap -> width
  | Sparse -> (Bitset.cardinal h + 1) * addr
  | Run_length -> runs h * (addr + 1)

let best h =
  List.fold_left
    (fun (be, bs) e ->
      let s = size e h in
      if s < bs then (e, s) else (be, bs))
    (Bitmap, size Bitmap h)
    [ Sparse; Run_length ]

let monotone = function Bitmap | Sparse -> true | Run_length -> false

let plan_cost encoding trace =
  let init h = size encoding h in
  if monotone encoding then
    (General_opt.solve_monotone ~init ~cost:Bitset.cardinal trace).General_opt.cost
  else begin
    (* Optimal among union plans: block DP with the (non-monotone)
       descriptor init evaluated on block unions. *)
    let n = Trace.length trace in
    let f = Array.make (n + 1) max_int in
    f.(0) <- 0;
    for j = 0 to n - 1 do
      for i = 0 to j do
        let u = Trace.range_union trace i j in
        let c = f.(i) + init u + (Bitset.cardinal u * (j - i + 1)) in
        if f.(i) < max_int && c < f.(j + 1) then f.(j + 1) <- c
      done
    done;
    f.(n)
  end

let name = function
  | Bitmap -> "bitmap"
  | Sparse -> "sparse"
  | Run_length -> "run-length"

let pp ppf e = Format.pp_print_string ppf (name e)
