(* The ratchet every host-allocation pin uses. For a given compiler and
   source tree the minor words a deterministic piece of work allocates
   are deterministic. A count more than 2% above its pin fails as a
   regression; one more than 2% below fails too, so that a change that
   lowers it re-pins it and the pin only ratchets down. *)

let check ~what ~words ~pin =
  let ratio = float_of_int words /. float_of_int (max 1 pin) in
  if ratio > 1.02 then
    Alcotest.failf "%s allocated %d minor words, %.1f%% above its pin %d" what
      words ((ratio -. 1.) *. 100.) pin;
  if ratio < 0.98 then
    Alcotest.failf
      "%s allocated %d minor words, %.1f%% below its pin %d: re-pin it" what
      words ((1. -. ratio) *. 100.) pin
