(** Tile-grid geometry and network timing.

    The Raw-like host is the Raw prototype's 4 x 4 grid of tiles,
    connected by a dimension-ordered dynamic network. Message latency between tiles is
    [inject + per-hop * manhattan-distance + eject + header]; spatial
    layout therefore matters, exactly as the paper's "explicitly manage
    on-chip layout and communication distance" requires. Contention is not
    modelled in the wires (it is modelled at the service tiles, which
    serialize — see {!Service}). *)

type coord = { x : int; y : int }

type t

val create : unit -> t

val tiles : t -> int

val tile_index : t -> coord -> int
val coord_of_index : t -> int -> coord

val hops : coord -> coord -> int
(** Manhattan distance. *)

val message_latency : t -> src:coord -> dst:coord -> int
(** inject(1) + 1 cycle/hop + eject(1) + header(1) + detours around failed
    tiles; a message to self costs the header only. *)

(** {2 Degraded state}

    A failed tile stops routing through itself: any message whose XY route
    crosses it pays a two-hop detour. What a failed tile means for the
    {e role} it was playing is the owning layer's business. *)

val fail_tile : t -> coord -> unit
val failed_tiles : t -> int

