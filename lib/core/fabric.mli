open Vat_desim
open Vat_guest

(** Two virtual machines sharing one tiled fabric (paper Section 5).

    The paper sketches "a large tiled fabric running many virtual x86's at
    the same time ... if dynamic reconfiguration is applied between
    virtual processors, they compete for resources and the utilization of
    the fabric rises: if one is stalled the other can use its tiles."
    This module realizes the two-guest case: each guest gets a fixed
    complex (execution tile, MMU, manager, syscall tile, one L2D bank) and
    the remaining translator tiles are either split statically or traded
    at runtime by a fabric controller that watches both guests' translate
    queues and lifetimes — a guest that finishes (or idles) donates its
    translators to the other. *)

type policy =
  | Static of int * int
      (** Fixed translator split (a, b); a + b <= 6, the pool tiles left
          after both guests' fixed complexes. *)
  | Shared of { dwell : int }
      (** Trade translators dynamically, rebalancing by relative queue
          length, with at least [dwell] cycles between trades. *)

type guest_result = {
  outcome : Exec.outcome;
  cycles : int;          (** cycle the guest finished *)
  guest_insns : int;
}

type result = {
  a : guest_result;
  b : guest_result;
  makespan : int;        (** cycle the later guest finished *)
  trades : int;          (** translator-tile trades performed *)
  stats : Stats.t;
}

val run :
  ?fuel:int ->
  ?max_cycles:int ->
  policy:policy ->
  Program.t * string ->
  Program.t * string ->
  result
(** [run ~policy (prog_a, name_a) (prog_b, name_b)] simulates both guests
    to completion. The names tag statistics. *)
