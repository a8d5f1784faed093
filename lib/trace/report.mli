(** Plain-text trace reports: per-tile utilization over time buckets, and
    the hot-block profile.

    Utilization counts span occupancy (serve, translate, fill) per track,
    bucketed over the run; the hot-block profile reconstructs per-block
    dispatch counts, chain counts, and attributed cycles from the
    execution tile's block-entry events. *)

val busy_fraction : Trace.t -> track:int -> total_cycles:int -> float
(** Fraction of the run the track spent inside spans (clamped to [0,1]). *)

val utilization_table :
  ?buckets:int -> Trace.t -> total_cycles:int -> string
(** One row per track with span activity: name, busy percentage, and a
    per-bucket decile bar ('.' idle through '9' saturated). *)

type block_stat = {
  addr : int;        (** guest PC of the block *)
  dispatches : int;  (** entries via dispatch (L1 lookup or fill) *)
  chains : int;      (** entries via a chained direct branch *)
  cycles : int;      (** execution-tile cycles attributed to the block *)
}

val block_profile : ?track_name:string -> Trace.t -> block_stat list
(** Per-block totals from the exec track's block-entry events, sorted by
    attributed cycles (descending). Cycles are attributed by delta to the
    next block entry, so they include the block's own dispatch/stall
    time. *)

val hot_blocks : ?top:int -> ?track_name:string -> Trace.t -> string
(** The top rows of {!block_profile} as a table with chain rates and
    cumulative entry coverage. *)

val render : ?buckets:int -> ?top:int -> Trace.t -> total_cycles:int -> string
(** The full text report: header, utilization table, hot-block profile. *)
