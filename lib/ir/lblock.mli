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
    undefined, duplicated or negative label, or a backward branch. *)

val map : (item -> item) -> t -> t
(** [List.map f], applied front to back, except that the result shares
    the input's longest suffix that [f] returned unchanged (physically
    equal), so a rewrite that changes nothing allocates no list. *)

val share : t -> item -> t -> t
(** [share l item' rest'] is [item' :: rest'], or [l] itself when [l] is
    physically that list: for a pass that rebuilds a body on the way
    back out of a recursion over it, so an unchanged suffix is not
    copied. *)

val insns : t -> Hinsn.t list
(** The instructions without markers (targets still label ids). *)

val insn_count : t -> int
(** [List.length (insns t)], without building the list. *)

val reg_count : t -> int
(** Size for a table indexed by register: one past the largest register
    id named, and at least {!Vat_host.Hinsn.first_vreg}. *)

val label_count : t -> int
(** Size for a table indexed by label: one past the largest label id
    placed, or 0. Raises {!Malformed} on a negative label. *)

val pp : Format.formatter -> t -> unit
