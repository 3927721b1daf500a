(* Monotonic time in seconds, with nanosecond resolution:
   Unix.gettimeofday's microseconds quantise the shorter set-up steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
