open Vat_host

(** Standard optimization passes over translated-block bodies.

    All passes are semantics-preserving at the guest level: loads and
    stores are never deleted or duplicated (so fault behaviour is intact),
    and internal branches remain forward-only. They run on the
    pre-linearization {!Lblock.t} form, so positions named in branch fields
    are label ids throughout.

    [live_out] is the set of registers meaningful after the block: the
    pinned guest registers plus whatever the terminator reads. *)

val constant_fold : Lblock.t -> Lblock.t
(** Forward constant propagation and folding: materialized constants flow
    into ALU/shift/bitfield operations; register-register forms collapse to
    immediate forms or constant loads; branches on known conditions become
    jumps or disappear. Knowledge is dropped at labels (join points). *)

val copy_propagate : Lblock.t -> Lblock.t

val eliminate_dead : live_out:Hinsn.reg list -> Lblock.t -> Lblock.t
(** Remove instructions whose results are never observed. Loads, stores,
    traps, branches and the macro-ops are never removed. Raises
    {!Lblock.Malformed} on a branch to an undefined or earlier label. *)

val forward_loads : Lblock.t -> Lblock.t
(** Redundant-load elimination with store-to-load forwarding. A repeated
    load from the same (base register, offset, width) with no intervening
    store or clobber becomes a register copy. *)

val peephole : Lblock.t -> Lblock.t
(** Local cleanups: self-moves, zero-shifts, nops. *)

val run_all : live_out:Hinsn.reg list -> Lblock.t -> Lblock.t
(** The pipeline the translator uses when optimization is on:
    constant folding, copy propagation, load forwarding, copy propagation
    again, dead-code elimination, peephole, and a final dead-code sweep. *)
