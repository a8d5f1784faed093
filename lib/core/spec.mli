(** Speculative parallel translation scheduling.

    The manager tile keeps prioritized queues of guest addresses awaiting
    translation. Priority is derived from speculation depth — the distance
    from the last block known to be on the real execution path — exactly
    as in the paper: demand misses are urgent, shallow speculation next,
    deep speculation and return-address predictions last. Static
    prediction is backward-taken (Ball-Larus); translation does not
    speculate past unresolved indirect jumps. *)

type t

val create : Config.t -> Vat_desim.Stats.t -> t

val request_demand : t -> int -> unit
(** A demand miss from the execution engine: highest priority, promoting
    an already-queued entry. *)

val note_on_path : t -> int -> unit
(** The engine actually reached this address: reset its depth so future
    successor speculation is prioritized from here. *)

val note_block_translated : t -> Block.t -> unit
(** Speculation fan-out: enqueue the block's statically predicted
    successors (unless speculation is disabled). *)

val seed : t -> int -> unit
(** Enqueue the program entry point. *)

val mark_done : t -> int -> unit
(** The address now has a block in the L2 code cache. *)

val forget_done : t -> int -> unit
(** The address's block left the L2 code cache (self-modifying-code
    invalidation or capacity eviction): allow it to be queued again. *)

val forget : t -> int -> unit
(** Unconditionally drop all record of the address (used when an
    in-flight translation is discarded as stale). *)

val is_done : t -> int -> bool
(** The address's block reached the L2 code cache (used by the
    fault-recovery deadline on slave dispatch). *)

val pop : t -> int option
(** Highest-priority address to translate next; marks it in flight. *)

val queue_length : t -> int
(** Blocks waiting to be translated (the morphing trigger metric). *)

val state_digest : t -> int
(** Iteration-order-independent hash of the whole speculation state
    (each address's status and depth, queue contents in FIFO order) — a
    checkpoint ingredient. *)
