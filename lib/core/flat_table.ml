module A1 = Bigarray.Array1

type t =
  | I16 of (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) A1.t
  | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t
  | I64 of (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

exception Overflow of { index : int; value : int; width_bits : int }

let max_i16 = 0xFFFF
let max_i32 = Int32.to_int Int32.max_int

let create ~max_value len =
  if len < 0 then invalid_arg "Flat_table.create: negative length";
  if max_value <= max_i16 then begin
    let a = A1.create Bigarray.int16_unsigned Bigarray.c_layout len in
    A1.fill a 0;
    I16 a
  end
  else if max_value <= max_i32 then begin
    let a = A1.create Bigarray.int32 Bigarray.c_layout len in
    A1.fill a 0l;
    I32 a
  end
  else begin
    let a = A1.create Bigarray.int64 Bigarray.c_layout len in
    A1.fill a 0L;
    I64 a
  end

let length = function I16 a -> A1.dim a | I32 a -> A1.dim a | I64 a -> A1.dim a
let width_bits = function I16 _ -> 16 | I32 _ -> 32 | I64 _ -> 64
let bytes t = length t * (width_bits t / 8)

let max_representable = function
  | I16 _ -> max_i16
  | I32 _ -> max_i32
  | I64 _ -> max_int

let reader = function
  | I16 a -> A1.get a
  | I32 a -> fun i -> Int32.to_int (A1.get a i)
  | I64 a -> fun i -> Int64.to_int (A1.get a i)

let writer = function
  | I16 a ->
      fun i v ->
        if v < 0 || v > max_i16 then
          raise (Overflow { index = i; value = v; width_bits = 16 });
        A1.set a i v
  | I32 a ->
      fun i v ->
        if v < 0 || v > max_i32 then
          raise (Overflow { index = i; value = v; width_bits = 32 });
        A1.set a i (Int32.of_int v)
  | I64 a ->
      fun i v ->
        if v < 0 then raise (Overflow { index = i; value = v; width_bits = 64 });
        A1.set a i (Int64.of_int v)

let get t i = reader t i
let set t i v = writer t i v

let equal a b =
  length a = length b
  &&
  let ra = reader a and rb = reader b in
  let rec go i = i >= length a || (ra i = rb i && go (i + 1)) in
  go 0
