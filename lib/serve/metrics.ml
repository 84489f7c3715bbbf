open Hr_core

(* All counters behind one mutex: contention is per-request and the
   critical sections are a few words — far below the solve costs they
   measure. *)
type t = {
  mu : Mutex.t;
  mutable latencies : float list;  (* reversed arrival order *)
  mutable nlat : int;
  mutable admitted : int;
  mutable shed : int;
  mutable completed : int;
  mutable errors : int;
  mutable cut_off : int;
}

let create () =
  {
    mu = Mutex.create ();
    latencies = [];
    nlat = 0;
    admitted = 0;
    shed = 0;
    completed = 0;
    errors = 0;
    cut_off = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let admit t = locked t (fun () -> t.admitted <- t.admitted + 1)
let shed t = locked t (fun () -> t.shed <- t.shed + 1)

let complete t ~latency_ms (r : Batch.response) =
  locked t (fun () ->
      t.latencies <- latency_ms :: t.latencies;
      t.nlat <- t.nlat + 1;
      t.completed <- t.completed + 1;
      match r.Batch.outcome with
      | Error _ -> t.errors <- t.errors + 1
      | Ok s ->
          if s.Batch.solution.Solution.cut_off then t.cut_off <- t.cut_off + 1)

let latencies t =
  locked t (fun () ->
      let arr = Array.make t.nlat 0. in
      List.iteri (fun i x -> arr.(t.nlat - 1 - i) <- x) t.latencies;
      arr)

type snapshot = {
  admitted : int;
  shed : int;
  completed : int;
  errors : int;
  cut_off : int;
  samples : float array;  (* per-request latencies, arrival order *)
}

let snapshot t =
  let samples = latencies t in
  locked t (fun () ->
      {
        admitted = t.admitted;
        shed = t.shed;
        completed = t.completed;
        errors = t.errors;
        cut_off = t.cut_off;
        samples;
      })
