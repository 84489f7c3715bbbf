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

let compact lv ~cap =
  let live = ref 0 in
  for s = 0 to lv.len - 1 do
    if lv.alive.(s) then incr live
  done;
  if !live > cap then begin
    let order = Array.make !live 0 in
    let k = ref 0 in
    for s = 0 to lv.len - 1 do
      if lv.alive.(s) then begin
        order.(!k) <- s;
        incr k
      end
    done;
    Array.sort
      (fun a b ->
        let c = Int.compare lv.acc.(a) lv.acc.(b) in
        if c <> 0 then c else Int.compare a b)
      order;
    for k = cap to !live - 1 do
      lv.alive.(order.(k)) <- false
    done
  end;
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
  lv.len <- !k;
  !live

let best lv =
  let b = ref (-1) in
  for s = 0 to lv.len - 1 do
    if lv.alive.(s) && (!b < 0 || lv.acc.(s) < lv.acc.(!b)) then b := s
  done;
  !b

let poll_mask = 4095

let exact_fits ~m ~n =
  let limit = 2_000_000. in
  let rec go j acc =
    if j >= m || acc > limit then acc else go (j + 1) (acc *. float_of_int n)
  in
  go 0 1. <= limit

module Index = struct
  type t = {
    fields : int;
    mutable lo : int;
    mutable bits : int;  (* per-field width of the packed key; 0 = string keys *)
    ints : (int, int) Hashtbl.t;
    strs : (string, int) Hashtbl.t;
    buf : Bytes.t;  (* the string key under construction, 8 bytes a field *)
    mutable count : int;
  }

  let create ~fields =
    {
      fields;
      lo = 0;
      bits = 0;
      ints = Hashtbl.create 16;
      strs = Hashtbl.create 16;
      buf = Bytes.create (fields * 8);
      count = 0;
    }

  let reset ix ~lo ~hi =
    (* Smallest b >= 1 with hi - lo < 2^b. *)
    let rec bits b = if hi - lo < 1 lsl b then b else bits (b + 1) in
    let b = bits 1 in
    ix.lo <- lo;
    ix.bits <- (if ix.fields * b <= 62 then b else 0);
    (* [clear] keeps the grown bucket arrays: levels of one run have
       similar sizes, and regrowing every level would rehash. *)
    Hashtbl.clear ix.ints;
    Hashtbl.clear ix.strs;
    ix.count <- 0

  (* Number a new key. *)
  let add tbl ix key =
    Hashtbl.add tbl key ix.count;
    ix.count <- ix.count + 1;
    ix.count - 1

  let find_or_add ix v =
    let bits = ix.bits and lo = ix.lo in
    if bits > 0 then begin
      let key = ref 0 in
      for j = 0 to ix.fields - 1 do
        key := (!key lsl bits) lor (v.(j) - lo)
      done;
      match Hashtbl.find_opt ix.ints !key with
      | Some k -> k
      | None -> add ix.ints ix !key
    end
    else begin
      for j = 0 to ix.fields - 1 do
        Bytes.set_int64_le ix.buf (j * 8) (Int64.of_int v.(j))
      done;
      (* The lookup reads the buffer in place; only a new key is
         copied into the table. *)
      match Hashtbl.find_opt ix.strs (Bytes.unsafe_to_string ix.buf) with
      | Some k -> k
      | None -> add ix.strs ix (Bytes.to_string ix.buf)
    end

  let count ix = ix.count
end
