(** A trivial binary container for assembled guest programs.

    Layout: magic "VAT0", then origin and entry as little-endian 32-bit
    words, then the raw image bytes. Enough for the toolchain round trip
    (vat_asm build / dis / run); this is not an ELF. *)

type t = { origin : int; entry : int; image : string }

exception Bad_image of string

val of_asm : origin:int -> Asm.item list -> t
(** Assemble; entry is the ["start"] symbol if present, else the origin. *)

val save : string -> t -> unit
val load : string -> t

val to_program : ?mem_size:int -> t -> Program.t
(** Load the image into a fresh guest memory of [mem_size] bytes (default
    4 MiB), laid out as {!Program.of_asm} does.
    @raise Bad_image if the image does not fit inside that memory. *)

val disassemble : t -> (int * string) list
(** [(address, rendering)] for each decodable instruction, linearly from
    the origin; undecodable bytes are rendered as [.byte] lines and
    skipped one at a time. *)
