(* Structured observability for solver runs: who ran, how long, how it
   ended, what the oracle cache did — exportable as JSON and printable
   as a table.  No external JSON dependency: the emitter below covers
   the subset this schema needs. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let buffer_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec buffer_add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        (* %.17g round-trips; %.3f is plenty for milliseconds and far
           more readable. *)
        Buffer.add_string buf (Printf.sprintf "%.3f" f)
      else Buffer.add_string buf "null"
  | String s -> buffer_add_json_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          buffer_add_json buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          buffer_add_json_string buf k;
          Buffer.add_char buf ':';
          buffer_add_json buf v)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 1024 in
  buffer_add_json buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* A recursive-descent parser for the same subset: enough to read back
   anything [json_to_string] emits (telemetry dumps, conformance-corpus
   cases) without an external JSON dependency.  It recurses once per
   open bracket, so the nesting depth is capped: the documents this
   repository writes nest a handful of levels, and an unbounded depth
   would let one hostile line grow the stack for seconds. *)
exception Parse_error of string

let max_json_depth = 512

let json_of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let depth = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" !pos msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> error (Printf.sprintf "expected %C, got %C" c d)
    | None -> error (Printf.sprintf "expected %C, got end of input" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let utf8_encode buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= len then error "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'u' ->
              if !pos + 4 > len then error "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code -> utf8_encode buf code
              | None -> error (Printf.sprintf "bad \\u escape %S" hex));
              go ()
          | c -> error (Printf.sprintf "bad escape \\%C" c))
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          is_float := true;
          true
      | _ -> false
    in
    while !pos < len && numchar s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> error (Printf.sprintf "bad number %S" tok)
  in
  let enter () =
    incr depth;
    if !depth > max_json_depth then
      error (Printf.sprintf "nesting deeper than max_json_depth = %d" max_json_depth);
    advance ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        enter ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          decr depth;
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                decr depth;
                List (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        enter ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          decr depth;
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                decr depth;
                Obj (List.rev (kv :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then error "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error ("Telemetry.json_of_string: " ^ msg)

(* ------------------------------------------------------------------ *)

type t = {
  label : string;
  problem : string;
  m : int;
  n : int;
  seed : int;
  deadline_ms : int option;
  total_ms : float;
  oracle : Interval_cost.cache_stats;
  reports : Solver.report list;
  winner : string option;
  ext : (string * (string * string) list) option;
}

let schema_version = "hyperreconf.telemetry/1"

(* Latency digest for serving summaries.  Stats.percentile raises on an
   empty sample — an idle server has one — so the guard lives here, at
   the telemetry boundary: no samples means null percentiles, not an
   Invalid_argument escaping through the summary writer. *)
let latency_summary samples =
  let n = Array.length samples in
  if n = 0 then
    Obj
      [
        ("count", Int 0);
        ("mean_ms", Null);
        ("p50_ms", Null);
        ("p95_ms", Null);
        ("p99_ms", Null);
        ("max_ms", Null);
      ]
  else
    let p q = Float (Hr_util.Stats.percentile samples q) in
    Obj
      [
        ("count", Int n);
        ("mean_ms", Float (Hr_util.Stats.mean samples));
        ("p50_ms", p 50.);
        ("p95_ms", p 95.);
        ("p99_ms", p 99.);
        ("max_ms", Float (Array.fold_left Float.max samples.(0) samples));
      ]

let table_cache_summary = function
  | None -> Null
  | Some dir ->
      let s = Table_cache.stats (Table_cache.of_dir dir) in
      Obj
        [
          ("dir", String dir);
          ("hits", Int s.Table_cache.hits);
          ("misses", Int s.Table_cache.misses);
          ("stores", Int s.Table_cache.stores);
          ("invalid", Int s.Table_cache.invalid);
          ("errors", Int s.Table_cache.errors);
        ]

(* The conventional per-backend work counters, in precedence order:
   whichever a solver reports first is its "iterations". *)
let iteration_keys = [ "evaluations"; "states"; "rounds" ]

let iterations (sol : Solution.t) =
  List.fold_left
    (fun acc key ->
      match acc with
      | Some _ -> acc
      | None ->
          Option.bind
            (List.assoc_opt key sol.Solution.stats)
            int_of_string_opt)
    None iteration_keys

let make ?(label = "race") ?deadline_ms ?(seed = Solver.default_seed)
    ~problem ~total_ms reports =
  let winner =
    match List.filter_map (fun r -> r.Solver.solution) reports with
    | [] -> None
    | sols -> Some (Solution.best sols).Solution.solver
  in
  {
    label;
    problem = Format.asprintf "%a" Problem.pp problem;
    m = Problem.m problem;
    n = Problem.n problem;
    seed;
    deadline_ms;
    total_ms;
    oracle = Interval_cost.cache_stats problem.Problem.oracle;
    reports;
    winner;
    ext =
      Option.map
        (fun (e : Problem.extension) -> (e.Problem.tag, e.Problem.counters ()))
        problem.Problem.ext;
  }

let report_to_json (r : Solver.report) =
  let base =
    [
      ("name", String r.Solver.solver);
      ("kind", String (Solver.kind_name r.Solver.kind));
      ("outcome", String (Solver.outcome_name r.Solver.outcome));
      ("wall_ms", Float r.Solver.wall_ms);
    ]
  in
  let detail =
    match r.Solver.outcome with
    | Solver.Crashed e -> [ ("error", String (Printexc.to_string e)) ]
    | Solver.Finished | Solver.Cut_off -> []
  in
  let solution =
    match r.Solver.solution with
    | None -> []
    | Some sol ->
        [
          ("cost", Int sol.Solution.cost);
          ("exact", Bool sol.Solution.exact);
          ("cut_off", Bool sol.Solution.cut_off);
          ( "iterations",
            match iterations sol with Some i -> Int i | None -> Null );
          ( "stats",
            Obj (List.map (fun (k, v) -> (k, String v)) sol.Solution.stats) );
        ]
  in
  Obj (base @ detail @ solution)

let oracle_to_json (o : Interval_cost.cache_stats) =
  Obj
    [
      ("kind", String o.Interval_cost.kind);
      ("queries", Int o.Interval_cost.queries);
      ("cells", Int o.Interval_cost.cells);
      ("segments", Int o.Interval_cost.segments);
      ("build_ms", Float o.Interval_cost.build_ms);
      ("build_workers", Int o.Interval_cost.build_workers);
      ("build_seq_ms", Float o.Interval_cost.build_seq_ms);
      ( "build_speedup",
        (* Measured pooled-build speedup: sequential-equivalent over
           wall clock.  Null when the build was sequential (nothing to
           compare) or too fast to time. *)
        if o.Interval_cost.build_workers > 1 && o.Interval_cost.build_ms > 0. then
          Float (o.Interval_cost.build_seq_ms /. o.Interval_cost.build_ms)
        else Null );
      ("width_bits", Int o.Interval_cost.width_bits);
      ("bytes_resident", Int o.Interval_cost.bytes_resident);
      ("bytes_peak", Int o.Interval_cost.bytes_peak);
      ( "source",
        if o.Interval_cost.source = "" then Null
        else String o.Interval_cost.source );
    ]

let to_json t =
  Obj
    ([
       ("schema", String schema_version);
       ("label", String t.label);
       ( "instance",
         Obj [ ("m", Int t.m); ("n", Int t.n); ("summary", String t.problem) ] );
       ("seed", Int t.seed);
       ( "deadline_ms",
         match t.deadline_ms with Some ms -> Int ms | None -> Null );
       ("total_ms", Float t.total_ms);
       ("oracle_cache", oracle_to_json t.oracle);
       ("solvers", List (List.map report_to_json t.reports));
       ("winner", match t.winner with Some w -> String w | None -> Null);
     ]
    (* Additive: plain problems emit no "extension" field, keeping
       their documents byte-identical for earlier schema consumers. *)
    @
    match t.ext with
    | None -> []
    | Some (tag, counters) ->
        [
          ( "extension",
            Obj
              [
                ("tag", String tag);
                ( "counters",
                  Obj (List.map (fun (k, v) -> (k, String v)) counters) );
              ] );
        ])

let to_string t = json_to_string (to_json t)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* ------------------------------------------------------------------ *)

let pp fmt t =
  let row (r : Solver.report) =
    let cost, iters =
      match r.Solver.solution with
      | Some sol ->
          ( string_of_int sol.Solution.cost,
            match iterations sol with Some i -> string_of_int i | None -> "-" )
      | None -> ("-", "-")
    in
    let outcome =
      match r.Solver.outcome with
      | Solver.Crashed e -> "crashed: " ^ Printexc.to_string e
      | o -> Solver.outcome_name o
    in
    [
      r.Solver.solver;
      Printf.sprintf "%.1f" r.Solver.wall_ms;
      outcome;
      cost;
      iters;
    ]
  in
  Format.fprintf fmt "%s: %s, seed %d%s, %.1f ms total" t.label t.problem
    t.seed
    (match t.deadline_ms with
    | Some ms -> Printf.sprintf ", deadline %d ms" ms
    | None -> "")
    t.total_ms;
  Format.pp_print_newline fmt ();
  Format.fprintf fmt
    "oracle cache: %s%s, %d queries, %d cells (%d-bit, %d bytes)@."
    t.oracle.Interval_cost.kind
    (if t.oracle.Interval_cost.source = "" then ""
     else " [" ^ t.oracle.Interval_cost.source ^ "]")
    t.oracle.Interval_cost.queries t.oracle.Interval_cost.cells
    t.oracle.Interval_cost.width_bits t.oracle.Interval_cost.bytes_resident;
  Format.pp_print_string fmt
    (Hr_util.Tablefmt.render
       ~header:[ "solver"; "wall ms"; "outcome"; "cost"; "iterations" ]
       (List.map row t.reports));
  Format.pp_print_newline fmt ();
  (match t.winner with
  | Some w -> Format.fprintf fmt "winner: %s@." w
  | None -> Format.fprintf fmt "winner: none@.")
