open Vat_host

(** Low-level IR container: a translated block body as a sequence of H-ISA
    instructions interleaved with label markers.

    Before linearization, branch/jump target fields hold {e label ids};
    {!linearize} resolves them to instruction indexes and drops the
    markers. All internal control flow is forward-only (the translator only
    emits skip-style branches), which every analysis in this library relies
    on; {!linearize} enforces it. *)

type item =
  | L of int          (** label marker *)
  | I of Hinsn.t

type t = item list

exception Malformed of string

val linearize : t -> Hinsn.t array
(** Resolve label ids to instruction indexes. Raises {!Malformed} for an
    undefined or duplicated label, or a backward branch. *)

val insns : t -> Hinsn.t list
(** The instructions without markers (targets still label ids). *)

val reg_count : t -> int
(** Size for a table indexed by register: one past the largest register
    id named, and at least {!Vat_host.Hinsn.first_vreg}. *)

val pp : Format.formatter -> t -> unit
