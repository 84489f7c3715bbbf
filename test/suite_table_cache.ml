(* Flat Bigarray oracle tables and the persistent content-addressed
   table cache: width ladder, overflow checking, elementwise identity
   with naive unions, the memory budget, on-disk round-trips,
   corruption/staleness recovery, concurrent writers, and the
   cache-served Problem path. *)

open Hr_core
module Bitset = Hr_util.Bitset

let check = Alcotest.check

(* Fresh private cache directory per test, removed eagerly. *)
let dir_counter = ref 0

let with_cache_dir f =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hr-table-cache-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
      | entries ->
          Array.iter
            (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
            entries
      | exception Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Flat_table. *)

let test_width_ladder () =
  let widths max_value = Flat_table.width_bits (Flat_table.create ~max_value 4) in
  check Alcotest.int "small values take 16 bits" 16 (widths 0xFFFF);
  check Alcotest.int "medium values take 32 bits" 32 (widths 0x10000);
  check Alcotest.int "Int32.max still 32 bits" 32
    (widths (Int32.to_int Int32.max_int));
  check Alcotest.int "huge values take 64 bits" 64
    (widths (Int32.to_int Int32.max_int + 1));
  let t = Flat_table.create ~max_value:9 5 in
  check Alcotest.int "bytes = cells * width/8" 10 (Flat_table.bytes t);
  check Alcotest.int "zero-initialized" 0 (Flat_table.get t 3)

let test_set_get_overflow () =
  let t = Flat_table.create ~max_value:100 8 in
  Flat_table.set t 0 0;
  Flat_table.set t 7 0xFFFF;
  check Alcotest.int "round-trips" 0xFFFF (Flat_table.get t 7);
  let raises f =
    match f () with
    | () -> false
    | exception Flat_table.Overflow _ -> true
  in
  check Alcotest.bool "16-bit writer rejects 0x10000" true (raises (fun () ->
      Flat_table.set t 1 0x10000));
  check Alcotest.bool "writer rejects negatives" true (raises (fun () ->
      Flat_table.set t 1 (-1)));
  let t32 = Flat_table.create ~max_value:0x10000 2 in
  check Alcotest.bool "32-bit writer rejects > Int32.max" true (raises (fun () ->
      Flat_table.set t32 0 (Int32.to_int Int32.max_int + 1)))

let test_dense_matches_reference () =
  (* The Bigarray-backed dense oracle must agree cell-for-cell with
     naive bitset unions per (j, lo, hi), and hold exactly the
     m·n(n+1)/2 cells with lo <= hi. *)
  let ts = Tutil.sample_task_set () in
  let dense = Interval_cost.precompute (Interval_cost.of_task_set ts) in
  let m = Task_set.num_tasks ts and n = Task_set.steps ts in
  for j = 0 to m - 1 do
    let trace = (Task_set.get ts j).Task_set.trace in
    for lo = 0 to n - 1 do
      for hi = lo to n - 1 do
        let expected = Bitset.cardinal (Trace.range_union trace lo hi) in
        check Alcotest.int
          (Printf.sprintf "cell (%d,%d,%d)" j lo hi)
          expected
          (dense.Interval_cost.step_cost j lo hi)
      done
    done
  done;
  let s = Interval_cost.cache_stats dense in
  check Alcotest.string "dense" "dense" s.Interval_cost.kind;
  check Alcotest.string "built in-process" "built" s.Interval_cost.source;
  check Alcotest.int "16-bit cells suffice" 16 s.Interval_cost.width_bits;
  check Alcotest.int "cells = m*n(n+1)/2" (m * n * (n + 1) / 2) s.Interval_cost.cells;
  check Alcotest.int "bytes = cells * width/8" (s.Interval_cost.cells * 16 / 8)
    s.Interval_cost.bytes_resident

let test_range_union_matches_naive () =
  let inst =
    {
      Tutil.m = 1;
      n = 7;
      widths = [ 5 ];
      vs = [ 2 ];
      reqs = [ [ [ 0 ]; [ 1; 2 ]; []; [ 4 ]; [ 0; 4 ]; [ 3 ]; [ 2 ] ] ];
    }
  in
  let ts = Tutil.task_set_of_instance inst in
  let trace = (Task_set.get ts 0).Task_set.trace in
  let oracle = Interval_cost.of_single ~v:2 trace in
  for lo = 0 to 6 do
    for hi = lo to 6 do
      check Alcotest.int
        (Printf.sprintf "|U(%d,%d)|" lo hi)
        (Bitset.cardinal (Trace.range_union trace lo hi))
        (oracle.Interval_cost.step_cost 0 lo hi)
    done
  done;
  check Alcotest.int "triangular table size" (7 * 8 / 2)
    (Interval_cost.cache_stats oracle).Interval_cost.cells

let test_max_bytes_keeps_direct () =
  (* Over the byte budget a custom oracle is not materialized: it stays
     direct and answers through its own step_cost. *)
  let base = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
  let raw =
    Interval_cost.make ~m:base.Interval_cost.m ~n:base.Interval_cost.n
      ~v:base.Interval_cost.v ~step_cost:base.Interval_cost.step_cost
  in
  let kind o = (Interval_cost.cache_stats o).Interval_cost.kind in
  let tight = Interval_cost.precompute ~max_bytes:8 raw in
  check Alcotest.string "stays direct" "direct" (kind tight);
  check Alcotest.string "fits -> dense" "dense" (kind (Interval_cost.precompute raw));
  for lo = 0 to 4 do
    for hi = lo to 4 do
      check Alcotest.int
        (Printf.sprintf "direct (%d,%d)" lo hi)
        (base.Interval_cost.step_cost 1 lo hi)
        (tight.Interval_cost.step_cost 1 lo hi)
    done
  done

(* ------------------------------------------------------------------ *)
(* Table_cache. *)

let fill t =
  for i = 0 to Flat_table.length t - 1 do
    Flat_table.set t i (i * 3)
  done;
  t

let test_round_trip_widths () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      List.iteri
        (fun k max_value ->
          let key = Printf.sprintf "w%d" k in
          let t = fill (Flat_table.create ~max_value 100) in
          Table_cache.store cache ~key t;
          match Table_cache.load cache ~key ~cells:100 with
          | None -> Alcotest.failf "stored %s does not load" key
          | Some t' ->
              check Alcotest.int
                (key ^ " width preserved")
                (Flat_table.width_bits t) (Flat_table.width_bits t');
              check Alcotest.bool (key ^ " elementwise equal") true
                (Flat_table.equal t t'))
        [ 1000; 100_000; max_int ];
      let s = Table_cache.stats cache in
      check Alcotest.int "3 stores" 3 s.Table_cache.stores;
      check Alcotest.int "3 hits" 3 s.Table_cache.hits;
      check Alcotest.int "no misses" 0 s.Table_cache.misses)

let test_miss_absent_and_wrong_cells () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      check Alcotest.bool "absent key misses" true
        (Table_cache.load cache ~key:"nope" ~cells:10 = None);
      Table_cache.store cache ~key:"t" (fill (Flat_table.create ~max_value:9 10));
      check Alcotest.bool "cell-count mismatch misses" true
        (Table_cache.load cache ~key:"t" ~cells:11 = None);
      check Alcotest.bool "matching load hits" true
        (Table_cache.load cache ~key:"t" ~cells:10 <> None);
      let s = Table_cache.stats cache in
      check Alcotest.int "cell mismatch counts invalid" 1 s.Table_cache.invalid)

let corrupt_byte path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let test_corrupt_recovery () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      let t = fill (Flat_table.create ~max_value:9 64) in
      Table_cache.store cache ~key:"c" t;
      (* Flip a payload byte: the digest check must reject the file. *)
      corrupt_byte (Table_cache.file cache ~key:"c") 70;
      check Alcotest.bool "corrupt file misses" true
        (Table_cache.load cache ~key:"c" ~cells:64 = None);
      check Alcotest.int "counted invalid" 1
        (Table_cache.stats cache).Table_cache.invalid;
      (* The caller's protocol: rebuild and overwrite. *)
      Table_cache.store cache ~key:"c" t;
      match Table_cache.load cache ~key:"c" ~cells:64 with
      | None -> Alcotest.fail "rebuilt entry must load"
      | Some t' -> check Alcotest.bool "recovered" true (Flat_table.equal t t'))

let test_truncated_recovery () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      let t = fill (Flat_table.create ~max_value:9 64) in
      Table_cache.store cache ~key:"t" t;
      let path = Table_cache.file cache ~key:"t" in
      Unix.truncate path (64 + 40) (* header + partial payload *);
      check Alcotest.bool "truncated file misses" true
        (Table_cache.load cache ~key:"t" ~cells:64 = None);
      Unix.truncate path 10 (* not even a whole header *);
      check Alcotest.bool "header-less file misses" true
        (Table_cache.load cache ~key:"t" ~cells:64 = None);
      check Alcotest.int "both counted invalid" 2
        (Table_cache.stats cache).Table_cache.invalid)

let test_version_stale () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      let t = fill (Flat_table.create ~max_value:9 16) in
      Table_cache.store cache ~key:"v" t;
      (* A format bump changes the 8-byte magic; simulate an old file by
         rewriting a version digit. *)
      corrupt_byte (Table_cache.file cache ~key:"v") 7;
      check Alcotest.bool "stale-version file misses" true
        (Table_cache.load cache ~key:"v" ~cells:16 = None);
      check Alcotest.int "counted invalid" 1
        (Table_cache.stats cache).Table_cache.invalid)

(* A file from format version 1 — the square m·n² layout under the
   magic "HRTBL001", otherwise well-formed — sits under the key a
   current build uses: it must count as invalid and be rebuilt. *)
let load_case name =
  match Hr_check.Corpus.load_file ("corpus/" ^ name ^ ".json") with
  | Ok c -> c
  | Error e -> Alcotest.failf "corpus %s: %s" name e

let test_format_1_rebuilt () =
  with_cache_dir (fun dir ->
      let case = load_case "all-task-globals" in
      let m = Hr_check.Case.m case and n = Hr_check.Case.n case in
      let cache = Table_cache.of_dir dir in
      let path = Table_cache.file cache ~key:(Hr_check.Case.oracle_key case) in
      let payload = String.make (m * n * n * 2) '\000' in
      let hdr = Bytes.make 64 '\000' in
      Bytes.blit_string "HRTBL001" 0 hdr 0 8;
      Bytes.set hdr 8 (Char.chr 16);
      Bytes.set hdr 9 (if Sys.big_endian then '\002' else '\001');
      Bytes.set_int64_le hdr 16 (Int64.of_int (m * n * n));
      Bytes.blit_string (Digest.string payload) 0 hdr 24 16;
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc hdr;
          Out_channel.output_string oc payload);
      let source () =
        (Interval_cost.cache_stats (Hr_check.Case.problem ~cache_dir:dir case).Problem.oracle)
          .Interval_cost.source
      in
      check Alcotest.string "format-1 file is rebuilt" "built" (source ());
      let s = Table_cache.stats cache in
      check Alcotest.int "counted invalid" 1 s.Table_cache.invalid;
      check Alcotest.int "rebuilt table stored" 1 s.Table_cache.stores;
      check Alcotest.string "then served from the file" "mmap" (source ()))

let test_bad_keys_rejected () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      let rejected key =
        match Table_cache.load cache ~key ~cells:1 with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      check Alcotest.bool "path traversal rejected" true (rejected "../evil");
      check Alcotest.bool "slash rejected" true (rejected "a/b");
      check Alcotest.bool "leading dot rejected" true (rejected ".hidden");
      check Alcotest.bool "empty rejected" true (rejected "");
      check Alcotest.bool "plain digest accepted" true
        (Table_cache.load cache ~key:(String.make 32 'a') ~cells:1 = None))

let test_concurrent_writers () =
  (* N domains racing to store the same key: temp-file + atomic rename
     means the survivor is one complete file, never an interleaving. *)
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      let t = fill (Flat_table.create ~max_value:300 4096) in
      let domains =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 8 do
                  Table_cache.store cache ~key:"race" t
                done))
      in
      Array.iter Domain.join domains;
      check Alcotest.int "all stores completed" 32
        (Table_cache.stats cache).Table_cache.stores;
      check Alcotest.int "no store errors" 0
        (Table_cache.stats cache).Table_cache.errors;
      match Table_cache.load cache ~key:"race" ~cells:4096 with
      | None -> Alcotest.fail "raced entry must be valid"
      | Some t' -> check Alcotest.bool "survivor is complete" true
          (Flat_table.equal t t'))

(* ------------------------------------------------------------------ *)
(* The cached problem path. *)

(* Problem.make takes an oracle mapped from a cache directory as it
   is: the table a cold build stored under a key comes back as an mmap,
   and both problems solve alike.  Storing the mapped oracle again
   writes nothing. *)
let test_problem_cache_dir () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      let ts = Tutil.sample_task_set () in
      let m = Task_set.num_tasks ts and n = Task_set.steps ts in
      let cold = Problem.of_task_set ts in
      Interval_cost.store cache ~key:"sample" cold.Problem.oracle;
      let mapped =
        match
          Interval_cost.of_cache cache ~key:"sample" ~m ~n
            ~v:cold.Problem.oracle.Interval_cost.v
        with
        | Some o -> o
        | None -> Alcotest.fail "stored table does not load"
      in
      let warm = Problem.make mapped in
      Interval_cost.store cache ~key:"sample" warm.Problem.oracle;
      check Alcotest.int "one store: a mapped table is not written back" 1
        (Table_cache.stats cache).Table_cache.stores;
      let cold_stats = Interval_cost.cache_stats cold.Problem.oracle in
      check Alcotest.string "cold build computes" "built"
        cold_stats.Interval_cost.source;
      let warm_stats = Interval_cost.cache_stats warm.Problem.oracle in
      check Alcotest.string "warm build maps the file" "mmap"
        warm_stats.Interval_cost.source;
      check Alcotest.int "same cells" cold_stats.Interval_cost.cells
        warm_stats.Interval_cost.cells;
      check Alcotest.int "same width" cold_stats.Interval_cost.width_bits
        warm_stats.Interval_cost.width_bits;
      (* Identical solves, cold vs warm. *)
      let solver = Solver_registry.find_exn "mt-dp" in
      let a = Solver.solve ~seed:7 solver cold in
      let b = Solver.solve ~seed:7 solver warm in
      check Alcotest.int "same cost" a.Solution.cost b.Solution.cost;
      check Alcotest.bool "same plan" true
        (Breakpoints.equal a.Solution.bp b.Solution.bp))

let test_case_warm_path () =
  (* Case.problem's warm path skips even the oracle construction; the
     solve must still be identical to the fresh one, for every model. *)
  with_cache_dir (fun dir ->
      List.iter
        (fun (name, r) ->
          let case =
            match r with
            | Ok c -> c
            | Error e -> Alcotest.failf "corpus %s: %s" name e
          in
          let fresh = Hr_check.Case.problem case in
          ignore (Hr_check.Case.problem ~cache_dir:dir case);
          let warm = Hr_check.Case.problem ~cache_dir:dir case in
          let ws = Interval_cost.cache_stats warm.Problem.oracle in
          if ws.Interval_cost.cells > 0 then
            check Alcotest.string (name ^ " warm source") "mmap"
              ws.Interval_cost.source;
          let solver = List.hd (Solver_registry.applicable fresh) in
          let a = Solver.solve ~seed:5 solver fresh in
          let b = Solver.solve ~seed:5 solver warm in
          check Alcotest.int (name ^ " cost") a.Solution.cost b.Solution.cost;
          check Alcotest.bool (name ^ " plan") true
            (Breakpoints.equal a.Solution.bp b.Solution.bp))
        (Hr_check.Corpus.load_dir "corpus"))

(* Case.problem hands max_table_bytes to the switch constructor, so an
   over-cap switch case gets the sparse index, cold or through a cache
   directory (which then stores nothing); a weighted table has no sparse
   form and is built whatever the cap.  A warm directory changes none of
   that: a table stored by an uncapped build is not mapped past the cap,
   so for every case and cap the warm build ends on the cold build's
   rung. *)
let test_case_max_table_bytes () =
  let reqs = [| [ [ 0 ]; [ 1 ]; [ 0; 1 ] ]; [ [ 2 ]; []; [ 0 ] ] |] in
  let case spec =
    {
      Hr_check.Case.spec;
      params = Sync_cost.default_params;
      mode = Mixed_sync.Fully_synchronized;
      machine_class = Problem.Partial;
      place = None;
    }
  in
  let switch = case (Switch { widths = [| 2; 3 |]; vs = [| 1; 1 |]; reqs }) in
  let weighted =
    case (Weighted { widths = [| 2; 3 |]; reqs; weights = [| [| 1; 2 |]; [| 1; 1; 3 |] |] })
  in
  let stats ?cache_dir ?max_table_bytes c =
    Interval_cost.cache_stats
      (Hr_check.Case.problem ?max_table_bytes ?cache_dir c).Problem.oracle
  in
  let kind ?cache_dir ?max_table_bytes c =
    (stats ?cache_dir ?max_table_bytes c).Interval_cost.kind
  in
  check Alcotest.string "switch within the cap -> dense" "dense" (kind switch);
  check Alcotest.string "switch over the cap -> sparse" "sparse"
    (kind ~max_table_bytes:8 switch);
  check Alcotest.string "weighted over the cap -> dense" "dense"
    (kind ~max_table_bytes:8 weighted);
  with_cache_dir (fun dir ->
      check Alcotest.string "switch over the cap, cache dir -> sparse" "sparse"
        (kind ~cache_dir:dir ~max_table_bytes:8 switch);
      check Alcotest.int "nothing stored" 0
        (Table_cache.stats (Table_cache.of_dir dir)).Table_cache.stores);
  (* A DAG whose widest block needs the 70000-cost node: a 32-bit table,
     twice its 16-bit projection. *)
  let wide_dag =
    case
      (Dag { num_contexts = 2; w = 1; costs = [| 1; 70_000 |]; sat_sizes = [| 1; 2 |]; seq = [| 0; 1; 0 |] })
  in
  let cases =
    [ ("switch", switch); ("weighted", weighted); ("32-bit dag", wide_dag) ]
    @ List.map (fun name -> (name, load_case name)) [ "dag-chain"; "single-step" ]
  in
  with_cache_dir (fun dir ->
      List.iter
        (fun (name, c) ->
          let stored = stats ~cache_dir:dir c in
          let bytes = stored.Interval_cost.bytes_resident in
          check Alcotest.string (name ^ ": the uncapped table is dense") "dense"
            stored.Interval_cost.kind;
          List.iter
            (fun cap ->
              let cold = stats ~max_table_bytes:cap c in
              let warm = stats ~cache_dir:dir ~max_table_bytes:cap c in
              check Alcotest.string
                (Printf.sprintf "%s cap %d: warm rung = cold rung" name cap)
                cold.Interval_cost.kind warm.Interval_cost.kind;
              if warm.Interval_cost.kind = "dense" then
                check Alcotest.string
                  (Printf.sprintf "%s cap %d: a dense warm build maps" name cap)
                  "mmap" warm.Interval_cost.source)
            [ 8; bytes - 1; bytes ])
        cases)

(* A cold keyed build looks the store up once: a DAG oracle is built
   by [precompute], which never reads the store. *)
let test_case_one_lookup_per_build () =
  with_cache_dir (fun dir ->
      let case = load_case "dag-chain" in
      let stats () = Table_cache.stats (Table_cache.of_dir dir) in
      ignore (Hr_check.Case.problem ~cache_dir:dir case);
      let cold = stats () in
      check Alcotest.int "cold: one miss" 1 cold.Table_cache.misses;
      check Alcotest.int "cold: one store" 1 cold.Table_cache.stores;
      check Alcotest.int "cold: no hit" 0 cold.Table_cache.hits;
      ignore (Hr_check.Case.problem ~cache_dir:dir case);
      let warm = stats () in
      check Alcotest.int "warm: one hit" 1 warm.Table_cache.hits;
      check Alcotest.int "warm: no new miss" 1 warm.Table_cache.misses;
      check Alcotest.int "warm: no new store" 1 warm.Table_cache.stores)

let test_of_cache_miss () =
  with_cache_dir (fun dir ->
      let cache = Table_cache.of_dir dir in
      check Alcotest.bool "of_cache misses on an empty dir" true
        (Interval_cost.of_cache cache ~key:(String.make 32 'b') ~m:2 ~n:5
           ~v:[| 1; 2 |]
        = None))

(* ------------------------------------------------------------------ *)
(* Cli.positive. *)

let test_cli_positive () =
  check Alcotest.(result int string) "parses" (Ok 64)
    (Hr_util.Cli.positive ~what:"--max-table-mb" "64");
  check Alcotest.bool "rejects zero" true
    (Result.is_error (Hr_util.Cli.positive ~what:"x" "0"));
  check Alcotest.bool "rejects negatives" true
    (Result.is_error (Hr_util.Cli.positive ~what:"x" "-3"));
  check Alcotest.bool "rejects junk" true
    (Result.is_error (Hr_util.Cli.positive ~what:"x" "64MB"));
  match Hr_util.Cli.positive_exn ~what:"--max-table-mb" "abc" with
  | exception Failure msg ->
      check Alcotest.bool "message names the option" true
        (Astring.String.is_infix ~affix:"--max-table-mb" msg)
  | v -> Alcotest.failf "junk parsed as %d" v

let tests =
  [
    Alcotest.test_case "flat table width ladder" `Quick test_width_ladder;
    Alcotest.test_case "flat table set/get + overflow" `Quick test_set_get_overflow;
    Alcotest.test_case "dense table = reference unions" `Quick
      test_dense_matches_reference;
    Alcotest.test_case "range union = naive unions" `Quick
      test_range_union_matches_naive;
    Alcotest.test_case "max_bytes keeps custom oracle direct" `Quick
      test_max_bytes_keeps_direct;
    Alcotest.test_case "round trip per width" `Quick test_round_trip_widths;
    Alcotest.test_case "absent / wrong-cells misses" `Quick
      test_miss_absent_and_wrong_cells;
    Alcotest.test_case "corrupt file recovery" `Quick test_corrupt_recovery;
    Alcotest.test_case "truncated file recovery" `Quick test_truncated_recovery;
    Alcotest.test_case "stale version misses" `Quick test_version_stale;
    Alcotest.test_case "format-1 file rebuilt" `Quick test_format_1_rebuilt;
    Alcotest.test_case "invalid keys rejected" `Quick test_bad_keys_rejected;
    Alcotest.test_case "concurrent writers race safely" `Quick
      test_concurrent_writers;
    Alcotest.test_case "Problem.make cache_dir warm = mmap" `Quick
      test_problem_cache_dir;
    Alcotest.test_case "Case.problem warm path, whole corpus" `Quick
      test_case_warm_path;
    Alcotest.test_case "Case.problem honours max_table_bytes" `Quick
      test_case_max_table_bytes;
    Alcotest.test_case "Case.problem looks up once per build" `Quick
      test_case_one_lookup_per_build;
    Alcotest.test_case "of_cache misses cleanly" `Quick test_of_cache_miss;
    Alcotest.test_case "Cli.positive strictness" `Quick test_cli_positive;
  ]
