open Vat_guest

(** The eleven SpecInt 2000 surrogate benchmarks, in the paper's order
    (252.eon is omitted, as in the paper). *)

type benchmark = {
  name : string;
  description : string;
  program : unit -> Asm.item list;
}

val all : benchmark list
val find : string -> benchmark
(** Accepts either the full name ("164.gzip") or the suffix ("gzip");
    raises [Not_found] otherwise. *)

val load : benchmark -> Program.t
(** Build and assemble (programs are deterministic; this is pure). *)
