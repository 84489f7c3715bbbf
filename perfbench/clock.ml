(* Every harness timing reads the monotonic clock (nanoseconds since an
   arbitrary epoch); CPU time is the process user+system time summed
   over all of its domains. *)

let now () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
