type t = { bp : bool array array }

let dims t = (Array.length t.bp, Array.length t.bp.(0))

let validate bp =
  if Array.length bp = 0 then invalid_arg "Breakpoints: no tasks";
  let n = Array.length bp.(0) in
  if n = 0 then invalid_arg "Breakpoints: no steps";
  Array.iteri
    (fun j row ->
      if Array.length row <> n then
        invalid_arg (Printf.sprintf "Breakpoints: row %d has wrong length" j);
      if not row.(0) then
        invalid_arg
          (Printf.sprintf
             "Breakpoints: task %d lacks the mandatory step-0 hyperreconfiguration"
             j))
    bp

let of_matrix bp =
  validate bp;
  { bp = Array.map Array.copy bp }

let create ~m ~n =
  if m <= 0 || n <= 0 then invalid_arg "Breakpoints.create: bad dimensions";
  { bp = Array.init m (fun _ -> Array.init n (fun i -> i = 0)) }

let of_rows ~m ~n rows =
  if Array.length rows <> m then invalid_arg "Breakpoints.of_rows: arity";
  let t = create ~m ~n in
  Array.iteri
    (fun j is ->
      List.iter
        (fun i ->
          if i < 0 || i >= n then invalid_arg "Breakpoints.of_rows: index";
          t.bp.(j).(i) <- true)
        is)
    rows;
  t

let all ~m ~n =
  if m <= 0 || n <= 0 then invalid_arg "Breakpoints.all: bad dimensions";
  { bp = Array.init m (fun _ -> Array.make n true) }

let periodic ~m ~n k =
  if k <= 0 then invalid_arg "Breakpoints.periodic: k must be positive";
  { bp = Array.init m (fun _ -> Array.init n (fun i -> i mod k = 0)) }

let m t = fst (dims t)
let n t = snd (dims t)

let is_break t j i = t.bp.(j).(i)

let set t j i b =
  if i = 0 && not b then invalid_arg "Breakpoints.set: column 0 is mandatory";
  let c = { bp = Array.map Array.copy t.bp } in
  c.bp.(j).(i) <- b;
  c

let row t j = Array.copy t.bp.(j)
let matrix t = Array.map Array.copy t.bp
let unsafe_matrix t = t.bp

let intervals t j =
  let n = n t in
  let row = t.bp.(j) in
  let rec go lo i acc =
    if i >= n then List.rev ((lo, n - 1) :: acc)
    else if row.(i) then go i (i + 1) ((lo, i - 1) :: acc)
    else go lo (i + 1) acc
  in
  go 0 1 []

let interval_of t j i =
  let n = n t in
  let row = t.bp.(j) in
  let rec back k = if row.(k) then k else back (k - 1) in
  let rec fwd k = if k >= n || row.(k) then k - 1 else fwd (k + 1) in
  (back i, fwd (i + 1))

let break_count t j = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.bp.(j)

let break_columns t =
  let m, n = dims t in
  let cols = ref [] in
  for i = n - 1 downto 0 do
    let any = ref false in
    for j = 0 to m - 1 do
      if t.bp.(j).(i) then any := true
    done;
    if !any then cols := i :: !cols
  done;
  !cols

let copy t = { bp = Array.map Array.copy t.bp }

let equal a b = a.bp = b.bp

let single_of_multi t =
  let m, n = dims t in
  let row =
    Array.init n (fun i ->
        let rec any j = j < m && (t.bp.(j).(i) || any (j + 1)) in
        any 0)
  in
  { bp = [| row |] }

let pp ppf t =
  Array.iter
    (fun row ->
      Array.iter (fun b -> Format.pp_print_char ppf (if b then '#' else '.')) row;
      Format.pp_print_newline ppf ())
    t.bp
