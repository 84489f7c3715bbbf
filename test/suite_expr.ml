(* The boolean-expression compiler: semantics, CSE, scheduling,
   register allocation, and the Duo two-fabric instance. *)

open Hr_shyra
module Rng = Hr_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let all_envs names =
  let rec go = function
    | [] -> [ [] ]
    | name :: rest ->
        List.concat_map
          (fun env -> [ (name, false) :: env; (name, true) :: env ])
          (go rest)
  in
  go names

let check_expr_exhaustively e =
  let names = Expr.inputs e in
  List.iter
    (fun env ->
      let expected = Expr.eval (fun s -> List.assoc s env) e in
      let got = Expr.run e ~env in
      if got <> expected then
        Alcotest.failf "mismatch under %s"
          (String.concat ","
             (List.map (fun (s, b) -> Printf.sprintf "%s=%b" s b) env)))
    (all_envs names)

let test_basic_gates () =
  let a = Expr.var "a" and b = Expr.var "b" in
  List.iter check_expr_exhaustively
    Expr.[ a &&& b; a ||| b; a ^^^ b; not_ a; a; Const true; Const false ]

let test_full_adder () =
  (* sum = a xor b xor cin; carry = majority *)
  let a = Expr.var "a" and b = Expr.var "b" and cin = Expr.var "cin" in
  check_expr_exhaustively Expr.(a ^^^ b ^^^ cin);
  check_expr_exhaustively Expr.(a &&& b ||| (cin &&& (a ^^^ b)))

let test_deep_expression () =
  let a = Expr.var "a" and b = Expr.var "b" and c = Expr.var "c" and d = Expr.var "d" in
  check_expr_exhaustively
    Expr.(
      not_ (a &&& b) ^^^ (c ||| not_ d) &&& (a ^^^ (b ||| (c &&& d))) ||| not_ (a ^^^ d))

let qcheck_random_expressions =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random expressions compile correctly" ~count:60
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 5))
       (fun (seed, depth) ->
         let e = Expr.random (Rng.create seed) ~inputs:[ "a"; "b"; "c" ] ~depth in
         let names = Expr.inputs e in
         List.for_all
           (fun env ->
             Expr.run e ~env = Expr.eval (fun s -> List.assoc s env) e)
           (all_envs names)))

let test_cse_shares_work () =
  let a = Expr.var "a" and b = Expr.var "b" in
  let shared = Expr.(a ^^^ b) in
  let duplicated = Expr.(shared &&& shared) in
  let c = Expr.compile duplicated in
  (* xor once + and once, not xor twice. *)
  check int "2 ops after CSE" 2 c.Expr.ops

let test_constant_dedup () =
  (* The simplifier folds the whole expression to a single constant. *)
  let e = Expr.(Const true ^^^ Const true) in
  let c = Expr.compile e in
  check int "1 op after folding" 1 c.Expr.ops;
  check bool "value" false (Expr.run e ~env:[])

let qcheck_simplify_preserves_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"simplify preserves semantics" ~count:100
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 6))
       (fun (seed, depth) ->
         let e = Expr.random (Rng.create seed) ~inputs:[ "a"; "b"; "c" ] ~depth in
         let s = Expr.simplify e in
         List.for_all
           (fun env ->
             let lookup v = List.assoc v env in
             Expr.eval lookup e = Expr.eval lookup s)
           (all_envs [ "a"; "b"; "c" ])))

let test_simplify_rules () =
  let a = Expr.var "a" in
  Alcotest.(check bool) "double negation" true (Expr.simplify Expr.(not_ (not_ a)) = a);
  Alcotest.(check bool) "and true" true (Expr.simplify Expr.(a &&& Const true) = a);
  Alcotest.(check bool) "xor false" true (Expr.simplify Expr.(a ^^^ Const false) = a);
  Alcotest.(check bool) "or true" true
    (Expr.simplify Expr.(a ||| Const true) = Expr.Const true)

let test_compile_many_shares_carry_chain () =
  (* Whole-word ripple add: joint compilation shares the carry chain
     across output bits, so the op count beats independent
     compilations (which must re-derive every carry). *)
  (* A 4-leaf shared subexpression used by four outputs: separate
     compilation must re-derive it each time (it cannot fuse into one
     3-input LUT), joint compilation computes it once. *)
  let a = Expr.var "a" and b = Expr.var "b" in
  let c = Expr.var "c" and d = Expr.var "d" in
  let shared = Expr.((a ^^^ b) &&& (c ^^^ d)) in
  let outs = List.map (fun x -> Expr.(shared ^^^ x)) [ a; b; c; d ] in
  let joint = Expr.compile_many outs in
  let separate =
    List.fold_left (fun acc e -> acc + (Expr.compile e).Expr.ops) 0 outs
  in
  Alcotest.(check bool)
    (Printf.sprintf "joint (%d) < separate (%d)" joint.Expr.many_ops separate)
    true
    (joint.Expr.many_ops < separate);
  (* Whole-word ripple add through the joint path stays correct. *)
  let wa = Word.input "a" ~bits:3 and wb = Word.input "b" ~bits:3 in
  let sum = Word.add wa wb in
  for x = 0 to 7 do
    for y = 0 to 7 do
      let env = Word.bindings "a" ~bits:3 x @ Word.bindings "b" ~bits:3 y in
      if Word.run sum ~env <> (x + y) mod 8 then Alcotest.failf "add %d %d" x y
    done
  done;
  (* succ still works through the joint path. *)
  let w = Word.input "v" ~bits:4 in
  let next = Word.succ w in
  for x = 0 to 15 do
    let env = Word.bindings "v" ~bits:4 x in
    if Word.run next ~env <> (x + 1) mod 16 then Alcotest.failf "succ %d" x
  done

let test_run_many_order () =
  let a = Expr.var "a" in
  let outs = Expr.run_many [ a; Expr.not_ a; Expr.Const true ] ~env:[ ("a", false) ] in
  Alcotest.(check (list bool)) "ordered results" [ false; true; true ] outs

let test_counter_compiled_matches_handwritten_semantics () =
  for bound = 0 to 15 do
    let r = Counter_compiled.build ~init:0 ~bound () in
    if r.Counter_compiled.iterations <> bound then
      Alcotest.failf "bound %d: %d iterations" bound r.Counter_compiled.iterations;
    if r.Counter_compiled.final_value <> bound then
      Alcotest.failf "bound %d: final %d" bound r.Counter_compiled.final_value
  done

let test_counter_compiled_wraps () =
  let r = Counter_compiled.build ~init:12 ~bound:3 () in
  check int "wraps like the handwritten counter" 7 r.Counter_compiled.iterations

let test_bare_input () =
  let c = Expr.compile (Expr.var "x") in
  check int "no ops" 0 c.Expr.ops;
  check bool "identity" true (Expr.run (Expr.var "x") ~env:[ ("x", true) ])

let test_register_exhaustion_raises () =
  (* 9 inputs + enough simultaneously-live intermediates must blow the
     10-register file. *)
  let vars = List.init 9 (fun i -> Expr.var (Printf.sprintf "x%d" i)) in
  let pairs =
    (* xor adjacent pairs, keeping all results live via a balanced
       tree built at the very end. *)
    List.mapi (fun i v -> Expr.(v ^^^ Expr.var (Printf.sprintf "y%d" i))) vars
  in
  ignore pairs;
  match
    Expr.compile
      (List.fold_left (fun acc v -> Expr.(acc ^^^ v)) (List.hd vars) (List.tl vars))
  with
  | exception Expr.Out_of_registers -> ()
  | _ ->
      (* A left fold is register-frugal and may well fit; force the
         issue with > 10 inputs instead. *)
      let too_many =
        List.init 11 (fun i -> Expr.var (Printf.sprintf "z%d" i))
      in
      Alcotest.check_raises "11 inputs"
        (Invalid_argument "Expr.compile: more than 10 distinct inputs") (fun () ->
          ignore
            (Expr.compile
               (List.fold_left
                  (fun acc v -> Expr.(acc ^^^ v))
                  (List.hd too_many) (List.tl too_many))))

let test_compiled_program_is_dense_workload () =
  (* Two adders over disjoint inputs: plenty of independent ops, so the
     scheduler must pack two per cycle (cycles < ops). *)
  let a = Word.input "a" ~bits:2 and b = Word.input "b" ~bits:2 in
  let c = Word.input "c" ~bits:2 and d = Word.input "d" ~bits:2 in
  let joint =
    Expr.compile_many (Array.to_list (Word.add a b) @ Array.to_list (Word.add c d))
  in
  let cycles = Program.length joint.Expr.many_program in
  Alcotest.(check bool) "has cycles" true (cycles >= 2);
  Alcotest.(check bool) "at most 2 ops/cycle" true
    (cycles >= (joint.Expr.many_ops + 1) / 2);
  Alcotest.(check bool) "packs in parallel" true (cycles < joint.Expr.many_ops)

(* ---- Duo ---- *)

let test_duo_pads_to_common_length () =
  let counter = (Counter.build ~init:0 ~bound:3 ()).Counter.program in
  let gray = Gray.build () in
  let ts = Duo.task_set ("counter", counter) ("gray", gray) in
  check int "two tasks" 2 (Hr_core.Task_set.num_tasks ts);
  check int "padded to the longer program" (Program.length counter)
    (Hr_core.Task_set.steps ts);
  (* The padded tail of the short task has empty requirements. *)
  let short = (Hr_core.Task_set.get ts 1).Hr_core.Task_set.trace in
  let tail = Hr_core.Trace.req short (Hr_core.Trace.length short - 1) in
  check int "idle tail" 0 (Hr_util.Bitset.cardinal tail)

let test_duo_plans_beat_disabled () =
  let counter = (Counter.build ~init:0 ~bound:10 ()).Counter.program in
  let rule90 = Rule90.build ~steps:10 in
  let oracle = Duo.oracle ("counter", counter) ("rule90", rule90) in
  let n = oracle.Hr_core.Interval_cost.n in
  let disabled = Hr_core.Sync_cost.disabled_cost ~n ~machine_width:96 () in
  let plan = Hr_core.Mt_local.solve oracle in
  Alcotest.(check bool) "beats disabled" true (plan.Hr_core.Mt_local.cost < disabled)

(* ---- Word ---- *)

let env_of bindings s = List.assoc s bindings

let test_word_add_exhaustive () =
  let a = Word.input "a" ~bits:3 and b = Word.input "b" ~bits:3 in
  let sum = Word.add a b in
  for x = 0 to 7 do
    for y = 0 to 7 do
      let env =
        env_of (Word.bindings "a" ~bits:3 x @ Word.bindings "b" ~bits:3 y)
      in
      if Word.eval env sum <> (x + y) mod 8 then Alcotest.failf "%d+%d wrong" x y
    done
  done

let test_word_compare_exhaustive () =
  let a = Word.input "a" ~bits:3 and b = Word.input "b" ~bits:3 in
  let eq = Word.equal a b and lt = Word.less_than a b in
  for x = 0 to 7 do
    for y = 0 to 7 do
      let env =
        env_of (Word.bindings "a" ~bits:3 x @ Word.bindings "b" ~bits:3 y)
      in
      if Expr.eval env eq <> (x = y) then Alcotest.failf "eq %d %d" x y;
      if Expr.eval env lt <> (x < y) then Alcotest.failf "lt %d %d" x y
    done
  done

let test_word_mux_and_logic () =
  let a = Word.input "a" ~bits:2 and b = Word.input "b" ~bits:2 in
  let sel = Expr.var "s" in
  let m = Word.mux sel ~then_:a ~else_:b in
  for x = 0 to 3 do
    for y = 0 to 3 do
      List.iter
        (fun s ->
          let env =
            env_of
              ((("s", s) :: Word.bindings "a" ~bits:2 x)
              @ Word.bindings "b" ~bits:2 y)
          in
          if Word.eval env m <> (if s then x else y) then Alcotest.fail "mux";
          if Word.eval env (Word.logxor a b) <> x lxor y then Alcotest.fail "xor";
          if Word.eval env (Word.logand a b) <> x land y then Alcotest.fail "and")
        [ true; false ]
    done
  done

let test_word_succ_is_counter_step () =
  let w = Word.input "v" ~bits:4 in
  let next = Word.succ w in
  for x = 0 to 15 do
    let env = env_of (Word.bindings "v" ~bits:4 x) in
    if Word.eval env next <> (x + 1) mod 16 then Alcotest.failf "succ %d" x
  done

let test_word_compile_bit_on_shyra () =
  (* The adder's bit 1 compiled and executed on the machine. *)
  let a = Word.input "a" ~bits:2 and b = Word.input "b" ~bits:2 in
  let sum = Word.add a b in
  for x = 0 to 3 do
    for y = 0 to 3 do
      let env = Word.bindings "a" ~bits:2 x @ Word.bindings "b" ~bits:2 y in
      let expected = ((x + y) lsr 1) land 1 = 1 in
      if Expr.run sum.(1) ~env <> expected then Alcotest.failf "bit1 of %d+%d" x y
    done
  done

(* ---- St_opt.frontier ---- *)

let test_frontier_shape () =
  let trace =
    Hr_core.Trace.of_lists (Hr_core.Switch_space.make 4)
      [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 2; 3 ] ]
  in
  let step_cost =
    (Hr_core.Interval_cost.of_single ~v:2 trace).Hr_core.Interval_cost.step_cost 0
  in
  let front = Hr_core.St_opt.frontier ~v:2 ~n:6 ~step_cost in
  (* Strictly improving costs, ascending budgets; tail = optimum. *)
  let costs = List.map snd front in
  let budgets = List.map fst front in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "costs strictly decrease" true (strictly_decreasing costs);
  Alcotest.(check bool) "budgets ascend" true (budgets = List.sort compare budgets);
  let opt = (Hr_core.St_opt.solve ~v:2 ~n:6 ~step_cost).Hr_core.St_opt.cost in
  check int "tail is optimum" opt (List.nth costs (List.length costs - 1))

(* ---- fig2_paper ---- *)

let test_fig2_paper_legend () =
  let ts = Tutil.sample_task_set () in
  let bp = Hr_core.Breakpoints.of_rows ~m:2 ~n:5 [| [ 2 ]; [] |] in
  let out = Hr_viz.Figures.fig2_paper ts bp in
  Alcotest.(check bool) "legend" true
    (Astring.String.is_infix ~affix:"available but unused" out);
  Alcotest.(check bool) "marks" true (Astring.String.is_infix ~affix:"^" out)

(* ---- Expr_parse ---- *)

let test_parse_precedence () =
  (* & binds tighter than ^, which binds tighter than |. *)
  let e = Expr_parse.parse_exn "a | b ^ c & d" in
  Alcotest.(check bool) "a | (b ^ (c & d))" true
    (e = Expr.(var "a" ||| (var "b" ^^^ (var "c" &&& var "d"))));
  let f = Expr_parse.parse_exn "!a & b" in
  Alcotest.(check bool) "(!a) & b" true (f = Expr.(not_ (var "a") &&& var "b"))

let test_parse_literals_and_comments () =
  let e = Expr_parse.parse_exn "x0 & 1 ^ 0 # comment" in
  Alcotest.(check bool) "consts parsed" true
    (e = Expr.((var "x0" &&& Const true) ^^^ Const false))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Expr_parse.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "a &"; "(a"; "a b"; "a @ b"; ")" ]

let qcheck_parse_print_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse/print roundtrip preserves semantics" ~count:100
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 6))
       (fun (seed, depth) ->
         let e = Expr.random (Rng.create seed) ~inputs:[ "a"; "b"; "c" ] ~depth in
         let reparsed = Expr_parse.parse_exn (Expr_parse.print e) in
         List.for_all
           (fun env ->
             let lookup v = List.assoc v env in
             Expr.eval lookup e = Expr.eval lookup reparsed)
           (all_envs [ "a"; "b"; "c" ])))

let tests =
  [
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse literals" `Quick test_parse_literals_and_comments;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    qcheck_parse_print_roundtrip;
    Alcotest.test_case "word add" `Quick test_word_add_exhaustive;
    Alcotest.test_case "word compare" `Quick test_word_compare_exhaustive;
    Alcotest.test_case "word mux/logic" `Quick test_word_mux_and_logic;
    Alcotest.test_case "word succ" `Quick test_word_succ_is_counter_step;
    Alcotest.test_case "word compile bit" `Quick test_word_compile_bit_on_shyra;
    Alcotest.test_case "frontier" `Quick test_frontier_shape;
    Alcotest.test_case "fig2 paper legend" `Quick test_fig2_paper_legend;
    Alcotest.test_case "basic gates" `Quick test_basic_gates;
    Alcotest.test_case "full adder" `Quick test_full_adder;
    Alcotest.test_case "deep expression" `Quick test_deep_expression;
    qcheck_random_expressions;
    Alcotest.test_case "cse" `Quick test_cse_shares_work;
    Alcotest.test_case "constant dedup" `Quick test_constant_dedup;
    qcheck_simplify_preserves_semantics;
    Alcotest.test_case "simplify rules" `Quick test_simplify_rules;
    Alcotest.test_case "compile_many carry chain" `Quick test_compile_many_shares_carry_chain;
    Alcotest.test_case "run_many order" `Quick test_run_many_order;
    Alcotest.test_case "compiled counter semantics" `Quick test_counter_compiled_matches_handwritten_semantics;
    Alcotest.test_case "compiled counter wraps" `Quick test_counter_compiled_wraps;
    Alcotest.test_case "bare input" `Quick test_bare_input;
    Alcotest.test_case "register exhaustion" `Quick test_register_exhaustion_raises;
    Alcotest.test_case "dense workload" `Quick test_compiled_program_is_dense_workload;
    Alcotest.test_case "duo padding" `Quick test_duo_pads_to_common_length;
    Alcotest.test_case "duo planning" `Quick test_duo_plans_beat_disabled;
  ]
