(* Fixed-width bitsets on int arrays.  Each word carries [bits_per_word]
   bits; the top word is kept masked so that [cardinal], [equal] and
   [hash] can work wordwise without special-casing the tail. *)

let bits_per_word = Sys.int_size

type t = { width : int; words : int array }

let nwords width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make (nwords width) 0 }

let width s = s.width

let check_index s i =
  if i < 0 || i >= s.width then
    invalid_arg
      (Printf.sprintf "Bitset: index %d out of range [0,%d)" i s.width)

let check_same a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitset: width mismatch (%d vs %d)" a.width b.width)

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let mem s i =
  check_index s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let copy s = { s with words = Array.copy s.words }

let add s i =
  check_index s i;
  let t = copy s in
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word));
  t

let remove s i =
  check_index s i;
  let t = copy s in
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word));
  t

let singleton width i = add (create width) i

let full width =
  let s = create width in
  let t = copy s in
  for k = 0 to Array.length t.words - 1 do
    t.words.(k) <- -1
  done;
  (* Mask the tail so unused positions stay clear. *)
  let used_in_top = width - (Array.length t.words - 1) * bits_per_word in
  if Array.length t.words > 0 && used_in_top < bits_per_word then
    t.words.(Array.length t.words - 1) <- (1 lsl used_in_top) - 1;
  t

let of_list width is =
  let s = copy (create width) in
  List.iter
    (fun i ->
      check_index s i;
      s.words.(i / bits_per_word) <-
        s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word)))
    is;
  s

let map2 f a b =
  check_same a b;
  { width = a.width; words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b
let symdiff a b = map2 ( lxor ) a b

(* Branch-free SWAR count of one 63-bit word: sum bit pairs, then
   nibbles, then bytes, and gather the byte sums in the top byte with
   one multiply.  Every shift is logical, so the sign bit (bit 62)
   counts like any other.  The top field is narrower than the rest at
   every stage (1, 3, 7 and 7 bits), but the count it holds (at most 1,
   3, 7 and 63) always fits. *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (w * 0x0101_0101_0101_0101) lsr 56

let cardinal s = Array.fold_left (fun acc w -> acc + popcount_word w) 0 s.words

let subset a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go k = k >= n || (a.words.(k) land lnot b.words.(k) = 0 && go (k + 1)) in
  go 0

let equal a b = a.width = b.width && Array.for_all2 ( = ) a.words b.words

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash s =
  Array.fold_left (fun acc w -> (acc * 1000003) lxor (w land max_int)) s.width s.words

let fold f s init =
  let acc = ref init in
  for k = 0 to Array.length s.words - 1 do
    let base = k * bits_per_word in
    let w = ref s.words.(k) in
    while !w <> 0 do
      (* The lowest set bit's index is the count of the bits below it. *)
      let low = !w land - !w in
      acc := f (base + popcount_word (low - 1)) !acc;
      w := !w lxor low
    done
  done;
  !acc

let iter f s = fold (fun i () -> f i) s ()

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let union_into ~into s =
  check_same into s;
  for k = 0 to Array.length into.words - 1 do
    into.words.(k) <- into.words.(k) lor s.words.(k)
  done;
  into

let random next_float ~width ~density =
  let s = copy (create width) in
  for i = 0 to width - 1 do
    if next_float () < density then
      s.words.(i / bits_per_word) <-
        s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))
  done;
  s

let pp ppf s =
  let first = ref true in
  Format.pp_print_char ppf '{';
  iter
    (fun i ->
      if !first then first := false else Format.pp_print_char ppf ',';
      Format.pp_print_int ppf i)
    s;
  Format.pp_print_char ppf '}'

let pp_bits ppf s =
  for i = 0 to s.width - 1 do
    Format.pp_print_char ppf (if mem s i then '1' else '0')
  done

let to_string s = Format.asprintf "%a" pp s
