(* The ratchet every host-allocation pin uses. For a given compiler and
   source tree the minor words a deterministic piece of work allocates
   are deterministic, and so are the words a deterministic set of values
   retains. A count more than 2% above its pin fails as a regression;
   one more than 2% below fails too, so that a change that lowers it
   re-pins it and the pin only ratchets down. [measure] names the count
   in the failure message; [check] is the ratchet on minor words. *)

let ratchet ~measure ~what ~count ~pin =
  let ratio = float_of_int count /. float_of_int (max 1 pin) in
  if ratio > 1.02 then
    Alcotest.failf "%s: %d %s, %.1f%% above its pin %d" what count measure
      ((ratio -. 1.) *. 100.) pin;
  if ratio < 0.98 then
    Alcotest.failf "%s: %d %s, %.1f%% below its pin %d: re-pin it" what count
      measure ((1. -. ratio) *. 100.) pin

let check ~what ~words ~pin =
  ratchet ~measure:"minor words allocated" ~what ~count:words ~pin
