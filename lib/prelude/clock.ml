(* Monotonic clock built on the CLOCK_MONOTONIC binding shipped with
   bechamel; the unix library bundled with this compiler does not
   expose [Unix.clock_gettime]. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let elapsed_ms t0 = (now () -. t0) *. 1e3

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
