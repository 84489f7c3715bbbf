type level = {
  width : int;
  mutable vec : int array;
  mutable acc : int array;
  mutable breaks : (int * int) list array;
  mutable alive : bool array;
  mutable len : int;
}

let create ~width cap =
  let cap = max 1 cap in
  {
    width;
    vec = Array.make (cap * width) 0;
    acc = Array.make cap 0;
    breaks = Array.make cap [];
    alive = Array.make cap false;
    len = 0;
  }

let clear lv = lv.len <- 0

let grow lv =
  let cap = max 16 (2 * Array.length lv.acc) in
  let resize a size fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  lv.vec <- resize lv.vec (cap * lv.width) 0;
  lv.acc <- resize lv.acc cap 0;
  lv.breaks <- resize lv.breaks cap [];
  lv.alive <- resize lv.alive cap false

let push lv v ~acc ~breaks =
  if lv.len = Array.length lv.acc then grow lv;
  let s = lv.len in
  Array.blit v 0 lv.vec (s * lv.width) lv.width;
  lv.acc.(s) <- acc;
  lv.breaks.(s) <- breaks;
  lv.alive.(s) <- true;
  lv.len <- s + 1;
  s

let copy lv =
  let n = lv.len in
  {
    width = lv.width;
    vec = Array.sub lv.vec 0 (n * lv.width);
    acc = Array.sub lv.acc 0 n;
    breaks = Array.sub lv.breaks 0 n;
    alive = Array.sub lv.alive 0 n;
    len = n;
  }

let compact lv =
  let w = lv.width in
  let k = ref 0 in
  for s = 0 to lv.len - 1 do
    if lv.alive.(s) then begin
      if !k < s then begin
        for t = 0 to w - 1 do
          lv.vec.((!k * w) + t) <- lv.vec.((s * w) + t)
        done;
        lv.acc.(!k) <- lv.acc.(s);
        lv.breaks.(!k) <- lv.breaks.(s);
        lv.alive.(!k) <- true
      end;
      incr k
    end
  done;
  lv.len <- !k

let best lv =
  let b = ref (-1) in
  for s = 0 to lv.len - 1 do
    if lv.alive.(s) && (!b < 0 || lv.acc.(s) < lv.acc.(!b)) then b := s
  done;
  !b

let poll_mask = 4095

(* Smallest b >= 1 with hi - lo < 2^b: the width of one packed key
   field over [lo .. hi].  No non-negative int needs more than 62. *)
let field_bits ~lo ~hi =
  let rec go b = if b >= 62 || hi - lo < 1 lsl b then b else go (b + 1) in
  go 1

let exact_fits ~m ~n =
  let limit = 2_000_000. in
  let rec go j acc =
    if j >= m || acc > limit then acc else go (j + 1) (acc *. float_of_int n)
  in
  (* Mt_dp's block ends span -1 .. n-1, the wider of the two engines'
     field ranges. *)
  go 0 1. <= limit && m * field_bits ~lo:(-1) ~hi:(n - 1) <= 62

module Index = struct
  type t = {
    fields : int;
    mutable lo : int;
    mutable bits : int;  (* per-field width of the packed key *)
    keys : (int, int) Hashtbl.t;
  }

  let create ~fields = { fields; lo = 0; bits = 0; keys = Hashtbl.create 16 }

  let reset ix ~lo ~hi =
    let b = field_bits ~lo ~hi in
    if ix.fields * b > 62 then
      invalid_arg
        (Printf.sprintf "Dp_frontier.Index.reset: %d fields of %d bits do not pack"
           ix.fields b);
    ix.lo <- lo;
    ix.bits <- b;
    (* [clear] keeps the grown bucket array: levels of one run have
       similar sizes, and regrowing every level would rehash. *)
    Hashtbl.clear ix.keys

  let find_or_add ix v =
    let bits = ix.bits and lo = ix.lo in
    let key = ref 0 in
    for j = 0 to ix.fields - 1 do
      key := (!key lsl bits) lor (v.(j) - lo)
    done;
    match Hashtbl.find_opt ix.keys !key with
    | Some k -> k
    | None ->
        let k = Hashtbl.length ix.keys in
        Hashtbl.add ix.keys !key k;
        k

  let count ix = Hashtbl.length ix.keys
end
