open Vat_tiled

(** Floorplan: which tile plays which role, and the network latencies
    between them.

    Fixed roles sit on the west edge near the execution tile; the
    translator/L2-data pool occupies the remaining tiles with data-cache
    banks placed nearest the MMU (spatial layout is managed explicitly, as
    the paper's FPGA-like design style dictates). *)

type t

val create : Grid.t -> t

val grid : t -> Grid.t
(** The underlying grid (shared, mutable: marking a tile failed there
    changes subsequent latencies). *)

val exec : t -> Grid.coord
val mmu : t -> Grid.coord
val manager : t -> Grid.coord
val syscall : t -> Grid.coord
val l15_bank : t -> int -> Grid.coord
(** Banks 0 and 1. *)

val pool : t -> int -> Grid.coord
(** The 10 pool tiles, ordered so indexes 0..3 are the preferred L2D bank
    positions (nearest the MMU) and the rest translators. *)

(* Common paths. *)
val lat_exec_mmu : t -> int
val lat_mmu_bank : t -> int -> int
val lat_bank_exec : t -> int -> int
val lat_exec_l15 : t -> int -> int
val lat_l15_manager : t -> int -> int
val lat_exec_manager : t -> int
val lat_manager_exec : t -> int
val lat_manager_slave : t -> int -> int
val lat_exec_syscall : t -> int
