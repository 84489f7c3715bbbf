(* SplitMix64 (Steele, Lea, Flood 2014).  The 64-bit state lives in 8
   bytes, read and written with the native-endian int64 accessors, so a
   draw keeps it unboxed (a [mutable int64] record field would box a
   fresh [int64] on every write). *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Keep the result a non-negative OCaml int: drop to 62 uniform bits
   (Int64.to_int of a 63-bit value would overflow into the sign bit). *)
let[@inline] bits64 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) land max_int

let split t = of_state (next_int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max = max_int - (max_int mod bound) in
  let v = ref (bits64 t) in
  while !v >= max do
    v := bits64 t
  done;
  !v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* bits64 yields 62 bits, so dividing by 2^62 keeps the result in
   [0, 1). *)
let[@inline] float t = Stdlib.float_of_int (bits64 t) /. 0x1p62

let bool t = bits64 t land 1 = 1

let chance t p = float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
