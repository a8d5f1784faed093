open Vat_host

(** Linear-scan register allocation for translated blocks.

    Virtual registers (ids [>= Hinsn.first_vreg]) are renamed into the
    hardware temporary pool ({!Hinsn.temp_regs}); hardware registers —
    including the pinned guest registers — pass through unchanged. When the
    pool is exhausted, the interval with the furthest last use is spilled
    to the tile-local scratch area addressed by {!scratch_base_reg}, using
    the two reserved shuttle registers.

    Internal branches being forward-only makes linear live intervals
    (first def/use position to last position) exact. *)

val scratch_base_reg : Hinsn.reg
(** r26: holds the base of the tile-local spill area at run time. *)

exception Alloc_error of string

val allocate : Lblock.t -> unit
(** Rewrites the body in place to one free of virtual registers, sizing
    its tables from the body's [nregs]; spill code, when needed, goes
    into a new item array. Raises {!Alloc_error} only if an instruction
    needs more than two spilled sources (impossible for this ISA). *)
