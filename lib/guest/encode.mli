(** G86 binary instruction encoder.

    The encoding is variable-length (1 to 13 bytes): one opcode byte,
    followed by operand encodings. Register operands take 2 bytes, 32-bit
    immediates 5, memory operands 7 (kind byte, two descriptor bytes, 32-bit
    displacement). Direct control transfers encode a signed 32-bit
    displacement relative to the end of the instruction, so the encoder
    needs the instruction's own address. *)

exception Invalid of string
(** Raised for operand combinations the ISA forbids: an immediate
    destination, two memory operands in one instruction, an out-of-range
    shift count or interrupt vector. *)

val check : _ Insn.t -> unit
(** Raises {!Invalid} for an instruction the ISA forbids; the one
    statement of which instructions are valid. The encoder, the decoder
    and the text assembler all call it. Never depends on immediate or
    address values. *)

val sizeof : int Insn.t -> int
(** Encoded length in bytes: the encoder run without output, so it raises
    {!Invalid} as {!encode} does. Never depends on operand values. *)

val encode : at:int -> int Insn.t -> string
(** Encode the instruction assuming it is placed at guest address [at]. *)

val encode_into : Buffer.t -> at:int -> int Insn.t -> unit
