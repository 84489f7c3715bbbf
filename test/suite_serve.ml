(* lib/serve conformance: interleaved socket clients, deterministic
   load shedding and stdio backpressure, reply order on both
   transports, the summary's line identities, per-request deadlines,
   byte-parity with the in-process pipeline, and the latency-summary
   guards. *)

open Hr_core
module Check = Hr_check
module Server = Hr_serve.Server
module Protocol = Hr_serve.Protocol

let check = Alcotest.check

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hrserve-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

(* A connected client: line-oriented send/receive over the socket. *)
type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic
let half_close c = Unix.shutdown c.fd Unix.SHUTDOWN_SEND

let close c =
  try close_in c.ic (* closes the shared fd *) with Sys_error _ -> ()

let response_field name line =
  match Telemetry.json_of_string line with
  | Ok (Telemetry.Obj fields) -> List.assoc_opt name fields
  | _ -> Alcotest.failf "unparseable response line: %s" line

let response_id line =
  match response_field "id" line with
  | Some (Telemetry.String s) -> s
  | _ -> Alcotest.failf "response without id: %s" line

(* A stdio-transport server over two pipes: [f] writes the server's
   input on [input] and reads its replies from [output].  Closing
   [input] is the server's EOF; the descriptors stay the test's. *)
let with_stdio_server ?max_queue ?before_batch f =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t =
    Server.start
      (Server.config ?max_queue ?before_batch ~timing:false (`Stdio (in_r, out_w)))
  in
  let input = Unix.out_channel_of_descr in_w in
  let output = Unix.in_channel_of_descr out_r in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr input;
      Server.stop t;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ in_r; out_w ];
      close_in_noerr output)
    (fun () -> f t input output)

let send_all oc lines =
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc

let recv_n ic n = List.init n (fun _ -> input_line ic)

(* A dispatcher hook that holds every batch until [release ()];
   [await ()] returns once a batch is held. *)
let holding_hook () =
  let gate = Atomic.make true and in_batch = Atomic.make false in
  let hook () =
    Atomic.set in_batch true;
    while Atomic.get gate do
      Thread.delay 0.001
    done
  in
  let await () =
    while not (Atomic.get in_batch) do
      Thread.delay 0.001
    done
  in
  let release () = Atomic.set gate false in
  (hook, await, release)

let summary_field t name =
  match Server.summary_json t with
  | Telemetry.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> Alcotest.failf "summary has no %s" name)
  | _ -> Alcotest.fail "summary is not an object"

let summary_int t name =
  match summary_field t name with
  | Telemetry.Int i -> i
  | _ -> Alcotest.failf "summary %s is not an integer" name

(* The line identities, once every reply has been read: each non-blank
   line is admitted, shed or malformed; every admitted request has
   completed; and every completed request looked the LRU up once. *)
let check_line_counts t ~lines =
  let get = summary_int t in
  check Alcotest.int "lines = admitted + shed + malformed" lines
    (get "admitted" + get "shed" + get "malformed");
  check Alcotest.int "completed = admitted" (get "admitted") (get "completed");
  match summary_field t "lru_cache" with
  | Telemetry.Obj lru ->
      let n k =
        match List.assoc_opt k lru with Some (Telemetry.Int i) -> i | _ -> -1
      in
      check Alcotest.int "lru hits + misses = completed" (get "completed")
        (n "hits" + n "misses")
  | _ -> Alcotest.fail "summary lru_cache is not an object"

let corpus_cases () =
  List.map
    (fun (name, r) ->
      match r with
      | Ok c -> (name, c)
      | Error e -> Alcotest.failf "corpus %s does not load: %s" name e)
    (Check.Corpus.load_dir "corpus")

(* One case per line: [Case.to_string] ends with a newline that would
   split an envelope mid-JSON. *)
let corpus_lines () =
  List.map (fun (_, c) -> String.trim (Check.Case.to_string c)) (corpus_cases ())

let envelope ?deadline_ms ~id case_line =
  match deadline_ms with
  | None -> Printf.sprintf {|{"id":%S,"case":%s}|} id case_line
  | Some ms -> Printf.sprintf {|{"id":%S,"deadline_ms":%d,"case":%s}|} id ms case_line

(* ------------------------------------------------------------------ *)

let test_interleaved_connections () =
  (* Two clients interleave requests on one server; each connection
     gets exactly its own responses, in its own request order. *)
  let path = sock_path () in
  let lines = corpus_lines () in
  let case i = List.nth lines (i mod List.length lines) in
  with_server (Server.config ~timing:false (`Unix_path path))
    (fun t ->
      let a = connect path and b = connect path in
      send a (envelope ~id:"a-0" (case 0));
      send b (envelope ~id:"b-0" (case 1));
      send a (envelope ~id:"a-1" (case 2));
      send b (envelope ~id:"b-1" (case 3));
      half_close a;
      half_close b;
      (* Sequence the reads explicitly: list literals evaluate
         right-to-left. *)
      let a0 = recv a in
      let a1 = recv a in
      let b0 = recv b in
      let b1 = recv b in
      let ra = [ a0; a1 ] and rb = [ b0; b1 ] in
      check
        Alcotest.(list string)
        "connection a ids, in order" [ "a-0"; "a-1" ] (List.map response_id ra);
      check
        Alcotest.(list string)
        "connection b ids, in order" [ "b-0"; "b-1" ] (List.map response_id rb);
      List.iter
        (fun line ->
          match response_field "ok" line with
          | Some (Telemetry.Bool true) -> ()
          | _ -> Alcotest.failf "request failed: %s" line)
        (ra @ rb);
      close a;
      close b;
      (* Metrics are recorded before the response is written, so by now
         the live summary has seen all four requests. *)
      match Server.summary_json t with
      | Telemetry.Obj fields ->
          check Alcotest.bool "serve schema" true
            (List.assoc "schema" fields
            = Telemetry.String Server.summary_schema_version);
          check Alcotest.bool "four completed" true
            (List.assoc "completed" fields = Telemetry.Int 4);
          check Alcotest.bool "none shed" true
            (List.assoc "shed" fields = Telemetry.Int 0)
      | _ -> Alcotest.fail "summary is not an object")

let test_load_shedding () =
  (* Deterministic overload: block the dispatcher in the before_batch
     hook, fill the 1-slot admission queue, and watch the next request
     get a structured overloaded error while the admitted ones survive
     to be answered after release. *)
  let path = sock_path () in
  let gate = Atomic.make true in
  let in_batch = Atomic.make false in
  let hook () =
    Atomic.set in_batch true;
    while Atomic.get gate do
      Thread.delay 0.001
    done
  in
  let lines = corpus_lines () in
  let case i = List.nth lines (i mod List.length lines) in
  with_server
    (Server.config ~max_queue:1 ~timing:false
       ~before_batch:hook (`Unix_path path))
    (fun _t ->
      let c = connect path in
      send c (envelope ~id:"first" (case 0));
      (* Wait until the dispatcher holds "first" and the queue is empty. *)
      while not (Atomic.get in_batch) do
        Thread.delay 0.001
      done;
      send c (envelope ~id:"second" (case 1));
      (* Queue slot taken: give admission a moment, then overflow. *)
      Thread.delay 0.05;
      send c (envelope ~id:"third" (case 2));
      (* The shed response arrives while the others are still blocked. *)
      let shed_line = recv c in
      check Alcotest.string "shed request answered first" "third"
        (response_id shed_line);
      (match response_field "ok" shed_line with
      | Some (Telemetry.Bool false) -> ()
      | _ -> Alcotest.failf "shed response not an error: %s" shed_line);
      (match response_field "error" shed_line with
      | Some (Telemetry.String msg) ->
          check Alcotest.bool "error says overloaded" true
            (Astring.String.is_prefix ~affix:"overloaded" msg)
      | _ -> Alcotest.failf "shed response without error: %s" shed_line);
      Atomic.set gate false;
      half_close c;
      let r1 = recv c in
      let r2 = recv c in
      check Alcotest.string "first survives" "first" (response_id r1);
      check Alcotest.string "second survives" "second" (response_id r2);
      List.iter
        (fun line ->
          match response_field "ok" line with
          | Some (Telemetry.Bool true) -> ()
          | _ -> Alcotest.failf "admitted request failed: %s" line)
        [ r1; r2 ];
      close c)

let test_per_request_deadline () =
  (* An envelope deadline_ms tightens that request's budget only: with
     an already-expired deadline the solver is cut off (best-so-far,
     inexact), while the unconstrained twin solves exactly. *)
  let path = sock_path () in
  let mt_dp = Solver_registry.find_exn "mt-dp" in
  let case_line =
    match
      List.find_opt
        (fun (_, c) -> mt_dp.Solver.handles (Check.Case.problem c))
        (corpus_cases ())
    with
    | Some (_, c) -> String.trim (Check.Case.to_string c)
    | None -> Alcotest.fail "no corpus case handled by mt-dp"
  in
  with_server
    (Server.config ~timing:false
       ~solvers:(fun _ -> [ mt_dp ])
       (`Unix_path path))
    (fun _t ->
      let c = connect path in
      send c (envelope ~deadline_ms:0 ~id:"expired" case_line);
      send c (envelope ~id:"unbounded" case_line);
      half_close c;
      let expired = recv c in
      let unbounded = recv c in
      check Alcotest.string "expired id" "expired" (response_id expired);
      check Alcotest.bool "expired request is cut off" true
        (response_field "cut_off" expired = Some (Telemetry.Bool true));
      check Alcotest.bool "expired request is inexact" true
        (response_field "exact" expired = Some (Telemetry.Bool false));
      check Alcotest.bool "unbounded twin is not cut off" true
        (response_field "cut_off" unbounded = Some (Telemetry.Bool false));
      close c)

let test_socket_matches_stdio_bytes () =
  (* The acceptance bar: with timing off, the socket transport returns
     byte-identical response lines to the stdio pipeline (same parse,
     same batch, same rendering) over the whole corpus. *)
  let lines = corpus_lines () in
  let expected =
    let requests =
      List.mapi
        (fun k line ->
          match Protocol.parse_line ~fallback_id:(Printf.sprintf "#%d" k) line with
          | Protocol.Request r -> r
          | Protocol.Malformed { error; _ } ->
              Alcotest.failf "corpus line does not parse: %s" error)
        lines
    in
    let batch = Batch.run ~seed:Solver.default_seed requests in
    String.concat ""
      (List.map (fun r -> Protocol.response_line ~timing:false r)
         batch.Batch.responses)
  in
  let path = sock_path () in
  with_server (Server.config ~timing:false (`Unix_path path))
    (fun _t ->
      let c = connect path in
      List.iter (send c) lines;
      half_close c;
      let got =
        List.fold_left (fun acc _ -> acc ^ recv c ^ "\n") "" lines
      in
      close c;
      check Alcotest.string "socket responses = stdio responses" expected got)

(* Valid [A], an unparsable line (fallback id #1), valid [C], and [D]
   whose case has an unknown schema. *)
let mixed_stream () =
  let lines = corpus_lines () in
  [
    envelope ~id:"A" (List.nth lines 0);
    "{not json";
    envelope ~id:"C" (List.nth lines 1);
    {|{"id":"D","case":{"schema":"hyperreconf.case/9"}}|};
  ]

let test_reply_order () =
  (* Every connection answers in input order, malformed lines included,
     and both transports answer the same bytes. *)
  let stream = mixed_stream () in
  let expected = [ "A"; "#1"; "C"; "D" ] in
  let path = sock_path () in
  let socket_replies =
    with_server (Server.config ~timing:false (`Unix_path path)) (fun t ->
        let c = connect path in
        List.iter (send c) stream;
        half_close c;
        let got = recv_n c.ic 4 in
        close c;
        check Alcotest.(list string) "socket reply order" expected (List.map response_id got);
        check Alcotest.int "socket: two malformed" 2 (summary_int t "malformed");
        check_line_counts t ~lines:4;
        got)
  in
  let stdio_replies =
    with_stdio_server (fun t input output ->
        send_all input stream;
        let got = recv_n output 4 in
        check Alcotest.(list string) "stdio reply order" expected (List.map response_id got);
        check Alcotest.int "stdio: two malformed" 2 (summary_int t "malformed");
        check_line_counts t ~lines:4;
        got)
  in
  check Alcotest.(list string) "stdio bytes = socket bytes" socket_replies stdio_replies

let test_line_counts_with_shedding () =
  (* The identities hold when lines are shed too: hold the first batch,
     fill the one-slot queue, overflow it, and add a malformed and a
     blank line (blank lines count nowhere). *)
  let path = sock_path () in
  let hook, await, release = holding_hook () in
  let lines = corpus_lines () in
  with_server
    (Server.config ~max_queue:1 ~timing:false ~before_batch:hook (`Unix_path path))
    (fun t ->
      let c = connect path in
      send c (envelope ~id:"first" (List.nth lines 0));
      await ();
      send c (envelope ~id:"second" (List.nth lines 1));
      Thread.delay 0.05;
      send c (envelope ~id:"third" (List.nth lines 2));
      send c "";
      send c "{not json";
      check Alcotest.string "overloaded reply first" "third" (response_id (recv c));
      release ();
      half_close c;
      let got = recv_n c.ic 3 in
      close c;
      check Alcotest.(list string) "sequence in input order" [ "first"; "second"; "#3" ]
        (List.map response_id got);
      check Alcotest.int "one shed" 1 (summary_int t "shed");
      check_line_counts t ~lines:4)

let test_stdio_backpressure () =
  (* With the first batch held and a one-slot queue, the stdio reader
     waits for room instead of shedding; after release every reply
     arrives, in input order. *)
  let hook, await, release = holding_hook () in
  let lines = corpus_lines () in
  let ids = List.init 6 (Printf.sprintf "r%d") in
  with_stdio_server ~max_queue:1 ~before_batch:hook (fun t input output ->
      send_all input
        (List.mapi (fun i id -> envelope ~id (List.nth lines (i mod List.length lines))) ids);
      close_out input;
      await ();
      (* One request held in the batch, one queued, the reader waiting. *)
      while summary_int t "admitted" < 2 do
        Thread.delay 0.001
      done;
      Thread.delay 0.05;
      check Alcotest.int "held: two admitted" 2 (summary_int t "admitted");
      check Alcotest.int "held: nothing shed" 0 (summary_int t "shed");
      (match Unix.select [ Unix.descr_of_in_channel output ] [] [] 0. with
      | [], _, _ -> ()
      | _ -> Alcotest.fail "a reply was written while its batch was held");
      release ();
      let got = recv_n output (List.length ids) in
      check Alcotest.(list string) "every reply, in input order" ids (List.map response_id got);
      List.iter
        (fun line ->
          match response_field "ok" line with
          | Some (Telemetry.Bool true) -> ()
          | _ -> Alcotest.failf "request failed: %s" line)
        got;
      check Alcotest.int "never shed" 0 (summary_int t "shed");
      check_line_counts t ~lines:(List.length ids))

let test_listen_of_string () =
  let ok s = Result.get_ok (Server.listen_of_string s) in
  check Alcotest.bool "unix:" true (ok "unix:/tmp/x.sock" = `Unix_path "/tmp/x.sock");
  check Alcotest.bool "bare path" true (ok "/tmp/x.sock" = `Unix_path "/tmp/x.sock");
  check Alcotest.bool "tcp" true (ok "tcp:127.0.0.1:8080" = `Tcp ("127.0.0.1", 8080));
  check Alcotest.bool "tcp any" true (ok "tcp:*:0" = `Tcp ("*", 0));
  List.iter
    (fun s ->
      match Server.listen_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad address %S" s)
    [ "bogus"; "tcp:host"; "tcp:host:99999"; "tcp:host:nope"; "unix:" ]

let test_latency_summary_guards () =
  (* Percentiles must be null, not a crash, when no request has
     completed (Stats.percentile raises on empty samples). *)
  (match Telemetry.latency_summary [||] with
  | Telemetry.Obj fields ->
      check Alcotest.bool "count 0" true
        (List.assoc "count" fields = Telemetry.Int 0);
      List.iter
        (fun k ->
          check Alcotest.bool (k ^ " null") true
            (List.assoc k fields = Telemetry.Null))
        [ "mean_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "max_ms" ]
  | _ -> Alcotest.fail "latency summary is not an object");
  (* And the summary of a server that served nothing renders the same
     way. *)
  let t = Server.start (Server.config ~workers:1 (`Unix_path (sock_path ()))) in
  Server.stop t;
  match Server.summary_json t with
  | Telemetry.Obj fields -> (
      check Alcotest.bool "nothing completed" true
        (List.assoc "completed" fields = Telemetry.Int 0);
      match List.assoc "latency" fields with
      | Telemetry.Obj l ->
          check Alcotest.bool "idle count 0" true
            (List.assoc "count" l = Telemetry.Int 0);
          check Alcotest.bool "idle p95 null" true
            (List.assoc "p95_ms" l = Telemetry.Null)
      | _ -> Alcotest.fail "summary latency is not an object")
  | _ -> Alcotest.fail "summary is not an object"

let tests =
  [
    Alcotest.test_case "interleaved connections" `Quick
      test_interleaved_connections;
    Alcotest.test_case "load shedding under tiny queue" `Quick
      test_load_shedding;
    Alcotest.test_case "per-request deadline honoured" `Quick
      test_per_request_deadline;
    Alcotest.test_case "socket = stdio, byte for byte" `Quick
      test_socket_matches_stdio_bytes;
    Alcotest.test_case "reply order on both transports" `Quick test_reply_order;
    Alcotest.test_case "line counts reconcile under shedding" `Quick
      test_line_counts_with_shedding;
    Alcotest.test_case "stdio backpressure never sheds" `Quick
      test_stdio_backpressure;
    Alcotest.test_case "listen address parsing" `Quick test_listen_of_string;
    Alcotest.test_case "latency summary on empty samples" `Quick
      test_latency_summary_guards;
  ]
