(** Per-domain scratch tables for the IR passes: copy facts, liveness
    bitsets, scheduler edges and heaps, live intervals, label targets.
    A pass takes each table from a numbered slot (0 to 15) of one
    [Domain.DLS] workspace instead of making it per block. A slot grows
    to the largest block its domain has seen, so a block allocates no
    table once its domain has seen a larger one.

    Reset rule: a table holds what the last pass to use the slot left
    there, possibly one that raised mid-block. A pass that reads an
    entry before writing it clears the prefix it uses, with {!cleared},
    when it starts on a block. *)

val ints : int -> int -> int array
(** [ints slot n]: the slot's table, at least [n] long, contents
    unspecified. *)

val cleared : int -> int -> int -> int array
(** [cleared slot n v]: [ints slot n] with its first [n] entries [v]. *)
