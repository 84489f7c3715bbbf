type t = No_limit | Deadline_ms of float (* absolute, on the [now_ms] clock *)

(* CLOCK_MONOTONIC: a wall-clock step (NTP, a manual date change) can
   neither expire nor stretch a live budget. *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let unlimited = No_limit

let of_deadline_ms ms = Deadline_ms (now_ms () +. float_of_int ms)

let exhausted = function
  | No_limit -> false
  | Deadline_ms d -> now_ms () >= d

let remaining_ms = function
  | No_limit -> infinity
  | Deadline_ms d -> Float.max 0. (d -. now_ms ())

let is_limited = function No_limit -> false | Deadline_ms _ -> true

let earliest a b =
  match (a, b) with
  | No_limit, t | t, No_limit -> t
  | Deadline_ms x, Deadline_ms y -> Deadline_ms (Float.min x y)
