open Vat_host

(** Low-level IR container: a translated block body as one flat array of
    H-ISA instructions interleaved with label markers, which every pass
    rewrites in place.

    Before linearization, branch/jump target fields hold {e label ids};
    {!linearize} resolves them to instruction indexes and drops the
    markers. All internal control flow is forward-only (the translator only
    emits skip-style branches), which every analysis in this library relies
    on; {!linearize} enforces it.

    The block carries the sizes its passes need, so no pass walks it to
    count them: {!Emit} sets [nregs] and [nlabels] from what it handed
    out, and a pass that adds or drops instructions keeps [ninsns]
    right. Per-block scratch tables come from {!Workspace}. *)

type item =
  | L of int          (** label marker *)
  | I of Hinsn.t

type t = {
  mutable items : item array;  (** the body is [items.(0 .. len - 1)] *)
  mutable len : int;
  mutable ninsns : int;        (** instructions (not markers) in the body *)
  mutable nregs : int;  (** above every operand register; >= first_vreg *)
  mutable nlabels : int;       (** more than every label id placed *)
}

exception Malformed of string

val create : unit -> t
(** An empty body, with [nregs = first_vreg] and no labels. *)

val push : t -> item -> unit
(** Append an item, growing the array by doubling. Does not touch
    [nregs] or [nlabels]. *)

val of_list : item list -> t
(** A body holding the items, with its sizes counted from them. Raises
    {!Malformed} on a negative label. *)

val to_list : t -> item list

val linearize : t -> Hinsn.t array
(** Resolve label ids to instruction indexes. Raises {!Malformed} for an
    undefined, duplicated or out-of-range label, or a backward branch. *)

val pp : Format.formatter -> t -> unit
