open Vat_host

(** Standard optimization passes over translated-block bodies, each
    rewriting the body in place.

    All passes are semantics-preserving at the guest level: loads and
    stores are never deleted or duplicated (so fault behaviour is intact),
    and internal branches remain forward-only. They run on the
    pre-linearization {!Lblock.t} form, so positions named in branch fields
    are label ids throughout. Their tables come from {!Workspace}, sized
    from the body's counts.

    [live_out] is the set of registers meaningful after the block: the
    pinned guest registers plus whatever the terminator reads. *)

val constant_fold : Lblock.t -> unit
(** Forward constant propagation and folding: materialized constants flow
    into ALU/shift/bitfield operations; register-register forms collapse to
    immediate forms or constant loads. Knowledge is dropped at labels
    (join points). *)

val copy_propagate : Lblock.t -> unit
(** Copy propagation with store-to-load forwarding, in one forward sweep.
    Uses of a register that copies another are rewritten to the source
    while neither has been redefined. A load from the (width, base,
    offset) of an earlier load, or of an earlier W32 store, becomes a copy
    of the register that load wrote or that store read, while neither
    that register nor the base has been redefined; the copy propagates in
    turn. Any store forgets every address; a label forgets copies and
    addresses. *)

val eliminate_dead : live_out:Hinsn.reg list -> Lblock.t -> unit
(** One dead-code sweep: removes instructions whose results are never
    observed, and the self-moves [addi]/[ori]/[xori rd, rd, 0]; loads,
    stores, traps, branches and the macro-ops stay. It still counts the
    uses of what it removes, so a second sweep can remove the defs that
    only the first sweep's removals read. Raises {!Lblock.Malformed} on a
    branch to an undefined or earlier label. *)

val run_all : live_out:Hinsn.reg list -> Lblock.t -> unit
(** The pipeline the translator uses when optimization is on: exactly
    {!constant_fold}, {!copy_propagate} and two {!eliminate_dead} sweeps
    one after another, in two sweeps over the body. Folding and
    propagation run as one forward sweep, since each decides an item
    from earlier items only; the dead-code sweeps run as one backward
    sweep, the second seeing only what the first keeps, since each
    decides from later items only and neither drops a label. Raises
    {!Lblock.Malformed} as {!eliminate_dead} does. *)
