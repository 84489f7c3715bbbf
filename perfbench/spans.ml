(* In-memory spans for the traced run.  A span is opened around one
   call into a layer; solver spans are recorded from the race's worker
   domains, so appends take a lock.  Nothing is written until the run
   ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;
  name : string;
  start : int64;
  stop : int64;
}

type t = { mu : Mutex.t; mutable spans : span list; next_id : int Atomic.t }

let create () = { mu = Mutex.create (); spans = []; next_id = Atomic.make 0 }

(* [with_span t ~req ~parent name f] runs [f id] inside a new span and
   records it, also when [f] raises. *)
let with_span t ~req ~parent name f =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let start = Clock.now () in
  let record () =
    let s = { id; parent; req; name; start; stop = Clock.now () } in
    Mutex.lock t.mu;
    t.spans <- s :: t.spans;
    Mutex.unlock t.mu
  in
  Fun.protect ~finally:record (fun () -> f id)

let all t = List.rev t.spans
let duration_ms s = Clock.ms_between s.start s.stop

(* Length of the union of [spans]' intervals, in ms: the wall time they
   cover, counting overlapping (parallel) spans once. *)
let covered_ms spans =
  let sorted =
    List.sort (fun a b -> Int64.compare a.start b.start) spans
  in
  let rec go acc cur_start cur_stop = function
    | [] -> acc +. Clock.ms_between cur_start cur_stop
    | s :: rest ->
        if Int64.compare s.start cur_stop <= 0 then
          go acc cur_start (if Int64.compare s.stop cur_stop > 0 then s.stop else cur_stop) rest
        else go (acc +. Clock.ms_between cur_start cur_stop) s.start s.stop rest
  in
  match sorted with [] -> 0. | s :: rest -> go 0. s.start s.stop rest

(* One JSON object per line: id, parent, req, name, start_ns, end_ns. *)
let write t path =
  let open Hr_core.Telemetry in
  let line s =
    json_to_string
      (Obj
         [
           ("id", Int s.id);
           ("parent", Int s.parent);
           ("req", Int s.req);
           ("name", String s.name);
           ("start_ns", Int (Int64.to_int s.start));
           ("end_ns", Int (Int64.to_int s.stop));
         ])
  in
  Out_channel.with_open_bin path (fun oc -> List.iter (fun s -> output_string oc (line s)) (all t))
