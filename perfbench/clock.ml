(* The one clock every benchmark timing is read from: CLOCK_MONOTONIC
   through bechamel's stub, in integer nanoseconds.  Process CPU time
   ([Sys.time]) and the wall calendar ([Unix.gettimeofday]) are never
   used: the first sums all domains, the second can step. *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns *. 1e-9

let ms_of_ns ns = float_of_int ns *. 1e-6

let since_s t0 = s_of_ns (now_ns () - t0)

(* Taken when this module initialises, before any workload code runs:
   the reference point of the set-up time. *)
let process_start = now_ns ()
