(* A fixed set of worker domains fed from one task queue.  Batches
   (map / iter_chunks) enqueue one claim-task per chunk; the actual
   chunk index is taken from an atomic cursor, so the caller can race
   the workers for its own chunks ("caller helps") — the property that
   makes nested maps deadlock-free and lets a 0-idle-worker pool still
   make progress on the submitting domain. *)

let num_domains () = max 1 (Domain.recommended_domain_count ())

type t = {
  size : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.size

let rec worker_loop t =
  Mutex.lock t.mu;
  let rec next () =
    if not (Queue.is_empty t.queue) then begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mu;
      (* Claim-tasks contain their own exceptions; a raise here would
         mean a bug in this module, not in user code.  Swallowing it
         keeps the worker alive either way. *)
      (try task () with _ -> ());
      worker_loop t
    end
    else if t.stopped then Mutex.unlock t.mu
    else begin
      Condition.wait t.nonempty t.mu;
      next ()
    end
  in
  next ()

let create ?workers () =
  let size = max 1 (Option.value workers ~default:(num_domains ())) in
  let t =
    {
      size;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      workers = [];
    }
  in
  t.workers <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mu;
  t.stopped <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  List.iter Domain.join t.workers;
  t.workers <- []

let is_stopped t =
  Mutex.lock t.mu;
  let s = t.stopped in
  Mutex.unlock t.mu;
  s

let default_pool = ref None

let default () =
  match !default_pool with
  | Some t when not (is_stopped t) -> t
  | _ ->
      (* First use, or someone shut the shared pool down: a stopped
         pool would silently degrade every parallel map to caller-side
         sequential execution, so recreate instead of memoizing it
         forever. *)
      let t = create () in
      default_pool := Some t;
      (* Workers idle-waiting on the condition would keep the process
         from shutting down cleanly; join them on exit.  [shutdown] is
         idempotent, so stacking one handler per recreation is fine. *)
      at_exit (fun () -> shutdown t);
      t

(* [task] may not raise (it contains exceptions itself).  After
   shutdown, run it caller-side: degraded to sequential, never an
   error. *)
let submit t task =
  Mutex.lock t.mu;
  if t.stopped then begin
    Mutex.unlock t.mu;
    task ()
  end
  else begin
    Queue.push task t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end

let chunk_bounds ~chunks n =
  (* Contiguous, balanced chunks covering 0..n-1. *)
  let base = n / chunks and extra = n mod chunks in
  let rec go k start acc =
    if k = chunks then List.rev acc
    else
      let len = base + if k < extra then 1 else 0 in
      if len = 0 then go (k + 1) start acc
      else go (k + 1) (start + len) ((start, start + len - 1) :: acc)
  in
  go 0 0 []

(* The batch engine shared by [map] and [iter_chunks]: run
   [run_chunk ci] once for each chunk index, on workers and the caller
   concurrently, then re-raise the first (lowest-chunk) failure. *)
let run_batch t ~nchunks ~(run_chunk : int -> (unit -> unit, exn) result) =
  let errors = Array.make nchunks None in
  let cursor = Atomic.make 0 in
  let done_mu = Mutex.create () and done_cond = Condition.create () in
  let pending = ref nchunks in
  let claim () =
    let ci = Atomic.fetch_and_add cursor 1 in
    if ci >= nchunks then false
    else begin
      (* [run_chunk] computes outside any lock and returns a [commit]
         thunk that publishes its result; commits run under [done_mu]
         so the caller's wait sees a consistent pending count. *)
      let outcome = run_chunk ci in
      Mutex.lock done_mu;
      (match outcome with
      | Ok commit -> commit ()
      | Error e -> errors.(ci) <- Some e);
      decr pending;
      if !pending = 0 then Condition.broadcast done_cond;
      Mutex.unlock done_mu;
      true
    end
  in
  (* Submitted tasks go through a cell that is emptied once the batch
     completes: the caller often drains the cursor itself, and the
     leftover queue entries would otherwise keep [claim] — and through
     it [run_chunk], the chunk bounds and the caller's arrays — alive
     until every worker has popped its stale task. *)
  let claim_cell = ref claim in
  for _ = 1 to nchunks do
    submit t (fun () -> ignore (!claim_cell ()))
  done;
  (* Caller helps: claim chunks until the cursor runs dry... *)
  while claim () do
    ()
  done;
  (* ...then wait for chunks claimed by workers. *)
  Mutex.lock done_mu;
  while !pending > 0 do
    Condition.wait done_cond done_mu
  done;
  Mutex.unlock done_mu;
  (* Batch complete: stale claim-tasks still queued become no-ops and
     drop their references to this batch's state. *)
  claim_cell := (fun () -> false);
  (* Lowest failing chunk = lowest failing element index (chunks are
     contiguous and each stops at its first raise): the exception the
     sequential map would have thrown, re-raised exactly once. *)
  Array.iter (function Some e -> raise e | None -> ()) errors

let resolve_chunks t ?chunks n = min n (max 1 (Option.value chunks ~default:(t.size + 1)))

let map ?chunks t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let nchunks = resolve_chunks t ?chunks n in
    if nchunks <= 1 then Array.map f arr
    else begin
      let bounds = Array.of_list (chunk_bounds ~chunks:nchunks n) in
      let parts = Array.make (Array.length bounds) None in
      let run_chunk ci =
        let lo, hi = bounds.(ci) in
        match
          (* Fill ascending so a mid-chunk raise is the chunk's lowest
             failing index. *)
          let first = f arr.(lo) in
          let out = Array.make (hi - lo + 1) first in
          for i = lo + 1 to hi do
            out.(i - lo) <- f arr.(i)
          done;
          out
        with
        | out -> Ok (fun () -> parts.(ci) <- Some out)
        | exception e -> Error e
      in
      run_batch t ~nchunks:(Array.length bounds) ~run_chunk;
      match parts.(0) with
      | None -> assert false (* run_batch raised on any missing chunk *)
      | Some first ->
          let out = Array.make n first.(0) in
          Array.iteri
            (fun ci part ->
              match part with
              | Some part -> Array.blit part 0 out (fst bounds.(ci)) (Array.length part)
              | None -> assert false)
            parts;
          out
    end
  end

let iter_chunks ?chunks t f n =
  if n > 0 then begin
    let nchunks = resolve_chunks t ?chunks n in
    if nchunks <= 1 then f 0 (n - 1)
    else begin
      let bounds = Array.of_list (chunk_bounds ~chunks:nchunks n) in
      let run_chunk ci =
        let lo, hi = bounds.(ci) in
        match f lo hi with
        | () -> Ok (fun () -> ())
        | exception e -> Error e
      in
      run_batch t ~nchunks:(Array.length bounds) ~run_chunk
    end
  end
