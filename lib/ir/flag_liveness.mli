open Vat_guest

(** Dead-flag elimination analysis over guest instruction sequences.

    Works backward over one guest block. All five flags are assumed live at
    block exit (successor blocks are unknown at translation time), so the
    analysis can only kill a flag computation when a later instruction in
    the same block redefines that flag first — which, every ALU operation
    defining all five flags, is the overwhelmingly common case. The result
    tells the code generator which flags each instruction must actually
    materialize into the packed flags register. *)

val needed : int Insn.t array -> int array
(** [needed.(i)] = flag bits instruction [i] must materialize: its defined
    flags that are live out of position [i] under all-live-at-exit. *)
