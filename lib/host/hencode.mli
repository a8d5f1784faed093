(** Fixed 32-bit binary encoding of H-ISA instructions.

    Used for code-size accounting (translated blocks occupy
    [4 * instruction count] bytes of instruction memory) and exercised by
    round-trip tests. Register fields must be hardware registers (0..31):
    encoding an instruction that still contains virtual registers raises
    {!Invalid}, which is how tests assert that register allocation is
    complete. *)

exception Invalid of string

val bytes_per_insn : int
(** 4. *)

val encode : Hinsn.t -> int
(** 32-bit word (as a non-negative int). Raises {!Invalid} when a register,
    immediate, shift amount, bitfield, or branch target does not fit its
    field. Immediates must fit 16 bits signed (arithmetic) or unsigned
    (logical); branch targets must be in [0, 65535]. *)

val decode : int -> Hinsn.t
(** Raises {!Invalid} on an unknown major opcode. *)
