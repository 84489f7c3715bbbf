(* Bitset unit tests plus QCheck properties against a sorted-int-list
   reference model. *)

module Bitset = Hr_util.Bitset

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Reference model: sorted deduped int lists. *)
module Ref = struct
  let norm = List.sort_uniq compare
  let union a b = norm (a @ b)
  let inter a b = List.filter (fun x -> List.mem x b) (norm a)
  let diff a b = List.filter (fun x -> not (List.mem x b)) (norm a)
  let symdiff a b = norm (diff a b @ diff b a)
end

(* The model properties at one width; [suffix] tells the rounds apart.
   Round one spans three 63-bit words, round two 33 words. *)
let model_props ~width ~max_len ~suffix =
  let gen_list = QCheck2.Gen.(list_size (int_bound max_len) (int_bound (width - 1))) in
  let of_list l = Bitset.of_list width l in
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name:(name ^ suffix) gen f)
  in
  [
    prop "union matches model" (QCheck2.Gen.pair gen_list gen_list) (fun (a, b) ->
        Bitset.to_list (Bitset.union (of_list a) (of_list b)) = Ref.union a b);
    prop "inter matches model" (QCheck2.Gen.pair gen_list gen_list) (fun (a, b) ->
        Bitset.to_list (Bitset.inter (of_list a) (of_list b)) = Ref.inter a b);
    prop "diff matches model" (QCheck2.Gen.pair gen_list gen_list) (fun (a, b) ->
        Bitset.to_list (Bitset.diff (of_list a) (of_list b)) = Ref.diff a b);
    prop "symdiff matches model" (QCheck2.Gen.pair gen_list gen_list) (fun (a, b) ->
        Bitset.to_list (Bitset.symdiff (of_list a) (of_list b)) = Ref.symdiff a b);
    prop "cardinal = |model|" gen_list (fun a ->
        Bitset.cardinal (of_list a) = List.length (Ref.norm a));
    prop "to_list sorted & roundtrips" gen_list (fun a ->
        let l = Bitset.to_list (of_list a) in
        l = Ref.norm a && Bitset.equal (of_list l) (of_list a));
    prop "subset iff diff empty" (QCheck2.Gen.pair gen_list gen_list) (fun (a, b) ->
        Bitset.subset (of_list a) (of_list b)
        = Bitset.is_empty (Bitset.diff (of_list a) (of_list b)));
    prop "union is idempotent upper bound" (QCheck2.Gen.pair gen_list gen_list)
      (fun (a, b) ->
        let u = Bitset.union (of_list a) (of_list b) in
        Bitset.subset (of_list a) u && Bitset.subset (of_list b) u
        && Bitset.equal (Bitset.union u u) u);
    prop "symdiff cardinality identity" (QCheck2.Gen.pair gen_list gen_list)
      (fun (a, b) ->
        let sa = of_list a and sb = of_list b in
        Bitset.cardinal (Bitset.symdiff sa sb)
        = Bitset.cardinal (Bitset.union sa sb) - Bitset.cardinal (Bitset.inter sa sb));
    prop "hash respects equality" (QCheck2.Gen.pair gen_list gen_list) (fun (a, b) ->
        (not (Bitset.equal (of_list a) (of_list b)))
        || Bitset.hash (of_list a) = Bitset.hash (of_list b));
    prop "compare consistent with equal" (QCheck2.Gen.pair gen_list gen_list)
      (fun (a, b) ->
        Bitset.equal (of_list a) (of_list b) = (Bitset.compare (of_list a) (of_list b) = 0));
  ]

let qcheck_tests =
  model_props ~width:130 ~max_len:40 ~suffix:""
  @ model_props ~width:2048 ~max_len:300 ~suffix:" (2048 wide)"

let test_empty () =
  let s = Bitset.create 10 in
  check bool "is_empty" true (Bitset.is_empty s);
  check int "cardinal" 0 (Bitset.cardinal s);
  check bool "mem" false (Bitset.mem s 3)

let test_full () =
  let s = Bitset.full 70 in
  check int "cardinal" 70 (Bitset.cardinal s);
  check bool "mem last" true (Bitset.mem s 69);
  check int "width" 70 (Bitset.width s)

let test_full_zero_width () =
  let s = Bitset.full 0 in
  check int "cardinal" 0 (Bitset.cardinal s);
  check bool "empty" true (Bitset.is_empty s)

let test_full_word_boundary () =
  (* Exactly one word on a 63-bit system, both sides of the first two
     word edges, and 33 words: every bit, the sign bit included, counts
     once and folds to its own index. *)
  List.iter
    (fun w ->
      let s = Bitset.full w in
      check int (Printf.sprintf "cardinal of full %d" w) w (Bitset.cardinal s);
      Alcotest.(check (list int))
        (Printf.sprintf "elements of full %d" w)
        (List.init w Fun.id) (Bitset.to_list s))
    [ Sys.int_size; 62; 64; 126; 127; 2048 ]

let test_add_remove () =
  let s = Bitset.add (Bitset.create 10) 4 in
  check bool "added" true (Bitset.mem s 4);
  let s' = Bitset.remove s 4 in
  check bool "removed" false (Bitset.mem s' 4);
  check bool "original untouched" true (Bitset.mem s 4)

let test_out_of_range () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "mem oob" (Invalid_argument "Bitset: index 8 out of range [0,8)")
    (fun () -> ignore (Bitset.mem s 8));
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index -1 out of range [0,8)")
    (fun () -> ignore (Bitset.add s (-1)))

let test_width_mismatch () =
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset: width mismatch (8 vs 9)") (fun () ->
      ignore (Bitset.union (Bitset.create 8) (Bitset.create 9)))

let test_union_into () =
  let a = Bitset.copy (Bitset.of_list 10 [ 1; 2 ]) in
  let b = Bitset.of_list 10 [ 2; 5 ] in
  let r = Bitset.union_into ~into:a b in
  check bool "aliases" true (r == a);
  Alcotest.(check (list int)) "contents" [ 1; 2; 5 ] (Bitset.to_list r)

let test_fold_order () =
  let s = Bitset.of_list 100 [ 70; 3; 64 ] in
  Alcotest.(check (list int)) "ascending" [ 3; 64; 70 ]
    (List.rev (Bitset.fold (fun i acc -> i :: acc) s []))

let test_pp () =
  check Alcotest.string "pp" "{1,4}" (Bitset.to_string (Bitset.of_list 6 [ 4; 1 ]))

let tests =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "full width 0" `Quick test_full_zero_width;
    Alcotest.test_case "full word boundary" `Quick test_full_word_boundary;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
    Alcotest.test_case "union_into" `Quick test_union_into;
    Alcotest.test_case "fold order" `Quick test_fold_order;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
  @ qcheck_tests
