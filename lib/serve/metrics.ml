open Hr_core

(* All counters behind one mutex: contention is per-request and the
   critical sections are a few words — far below the solve costs they
   measure. *)
type t = {
  mu : Mutex.t;
  mutable latencies : float array;  (* the first [completed] are live *)
  mutable admitted : int;
  mutable shed : int;
  mutable malformed : int;
  mutable completed : int;
  mutable errors : int;
  mutable cut_off : int;
}

let create () =
  {
    mu = Mutex.create ();
    latencies = Array.make 64 0.;
    admitted = 0;
    shed = 0;
    malformed = 0;
    completed = 0;
    errors = 0;
    cut_off = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let admit t = locked t (fun () -> t.admitted <- t.admitted + 1)
let shed t = locked t (fun () -> t.shed <- t.shed + 1)
let malformed t = locked t (fun () -> t.malformed <- t.malformed + 1)

let complete t ~latency_ms (r : Batch.response) =
  locked t (fun () ->
      let n = t.completed in
      if n = Array.length t.latencies then
        t.latencies <- Array.append t.latencies (Array.make n 0.);
      t.latencies.(n) <- latency_ms;
      t.completed <- n + 1;
      match r.Batch.outcome with
      | Error _ -> t.errors <- t.errors + 1
      | Ok s ->
          if s.Batch.solution.Solution.cut_off then t.cut_off <- t.cut_off + 1)

type snapshot = {
  admitted : int;
  shed : int;
  malformed : int;
  completed : int;
  errors : int;
  cut_off : int;
  samples : float array;  (* per-request latencies, completion order *)
}

let snapshot t =
  locked t (fun () ->
      {
        admitted = t.admitted;
        shed = t.shed;
        malformed = t.malformed;
        completed = t.completed;
        errors = t.errors;
        cut_off = t.cut_off;
        samples = Array.sub t.latencies 0 t.completed;
      })
