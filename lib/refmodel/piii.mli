open Vat_guest

(** Pentium III reference timing model.

    The paper compares clock-for-clock against a real Pentium III; this
    model supplies the denominator of every slowdown number. It executes
    the guest program on the reference interpreter and accounts cycles
    with the intrinsics §4.5 uses: a 3-wide out-of-order core realizing
    SpecInt ILP of ~1.3 (Bhandarkar & Ding), fully pipelined L1 (16 KB,
    latency 3 hidden by the OoO window), L2 (256 KB, +7 on L1 miss), main
    memory (+40 effective of the 79-cycle latency, the rest hidden), a
    4K-entry 2-bit branch predictor with a 12-cycle mispredict penalty,
    and a 16-deep return-address stack. *)

type result = {
  outcome : Interp.outcome;
  cycles : int;
  instructions : int;
  l1_misses : int;
  l2_misses : int;
  mispredicts : int;
}

val run : ?input:string -> ?fuel:int -> Program.t -> result
(** [fuel] defaults to 200M instructions. *)
