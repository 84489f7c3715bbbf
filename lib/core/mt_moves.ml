module Rng = Hr_util.Rng

type matrix = bool array array

let copy g = Array.map Array.copy g

let dims g = (Array.length g, Array.length g.(0))

let random rng ~m ~n ~density =
  Array.init m (fun _ -> Array.init n (fun i -> i = 0 || Rng.chance rng density))

(* The moves below edit [g] in place; the exported versions copy first.
   [mutate] copies once and chains them on its copy. *)

let flip_in rng g =
  let m, n = dims g in
  if n > 1 then begin
    let j = Rng.int rng m and i = Rng.int_in rng 1 (n - 1) in
    g.(j).(i) <- not g.(j).(i)
  end

let shift_in rng g =
  let m, n = dims g in
  if n > 1 then begin
    let row = g.(Rng.int rng m) in
    let set = ref 0 in
    for i = 1 to n - 1 do
      if row.(i) then incr set
    done;
    if !set > 0 then begin
      (* Draw the k-th set position among steps 1..n-1, counted down
         from the last step: the pinned stream depends on that order. *)
      let k = Rng.int rng !set in
      let i = ref (n - 1) and seen = ref (if row.(n - 1) then 0 else -1) in
      while !seen < k do
        decr i;
        if row.(!i) then incr seen
      done;
      let i = !i in
      let dir = if Rng.bool rng then 1 else -1 in
      let i' = i + dir in
      if i' >= 1 && i' < n && not row.(i') then begin
        row.(i) <- false;
        row.(i') <- true
      end
    end
  end

let align_in rng g =
  let m, n = dims g in
  if n > 1 then begin
    let i = Rng.int_in rng 1 (n - 1) in
    let value =
      (* Prefer aligning to set when the column is partially set. *)
      let count = ref 0 in
      for j = 0 to m - 1 do
        if g.(j).(i) then incr count
      done;
      if !count = 0 then Rng.bool rng else Rng.chance rng 0.7
    in
    for j = 0 to m - 1 do
      g.(j).(i) <- value
    done
  end

let on_copy move rng g =
  let g = copy g in
  move rng g;
  g

let flip = on_copy flip_in
let shift = on_copy shift_in
let align = on_copy align_in

let mutate rng g =
  let g = copy g in
  let again = ref true in
  while !again do
    (match Rng.int rng 4 with
    | 0 | 1 -> flip_in rng g
    | 2 -> shift_in rng g
    | _ -> align_in rng g);
    again := Rng.chance rng 0.4
  done;
  g

let crossover rng a b =
  let m, n = dims a in
  if Rng.bool rng then
    (* Row selection: each task's row comes wholesale from one parent. *)
    Array.init m (fun j -> Array.copy (if Rng.bool rng then a.(j) else b.(j)))
  else begin
    (* Column cut: prefix from one parent, suffix from the other. *)
    let cut = if n = 1 then 0 else Rng.int_in rng 1 (n - 1) in
    Array.init m (fun j ->
        let row = Array.copy b.(j) in
        Array.blit a.(j) 0 row 0 cut;
        row)
  end

let neighbors g =
  let m, n = dims g in
  Seq.concat_map
    (fun j ->
      Seq.map
        (fun i ->
          let g' = copy g in
          g'.(j).(i) <- not g'.(j).(i);
          g')
        (Seq.init (n - 1) (fun k -> k + 1)))
    (Seq.init m Fun.id)
