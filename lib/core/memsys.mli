open Vat_desim

(** The pipelined guest data-memory system: MMU/TLB tile feeding banked L2
    data-cache tiles backed by off-chip DRAM (paper Figure 2).

    This is a timing model — data values always come from the functional
    guest memory. Each stage is a serialized {!Vat_tiled.Service}, so
    concurrent misses queue and the pipeline overlaps with execution.
    Reconfiguration can change the number of active banks at runtime
    (flushing them, since the address interleave changes). *)

type t

val create :
  ?trace:Vat_trace.Trace.t ->
  Event_queue.t ->
  Stats.t ->
  Config.t ->
  Layout.t ->
  page_table:int array ->
  t
(** [trace] (default disabled) records MMU and bank service occupancy on
    the "mmu"/"l2d.N" tracks, per-bank cache hit/miss events, and
    recovery-path instants (retries, direct-DRAM fallbacks, re-banking).
    Tracing only observes; timing is unchanged. *)

val access : t -> addr:int -> write:bool -> on_done:(unit -> unit) -> unit
(** Submit a miss from the execution tile's L1 data cache at the current
    event-queue time plus the exec->MMU latency. [on_done] fires when the
    reply reaches the execution tile. With {!Config.t.fault_tolerance}
    armed the request carries a deadline: lost replies are retried with
    exponential backoff, falling back to an uncached DRAM access (data is
    functional, so faults cost time, never correctness). *)

val active_banks : t -> int

val reconfigure_banks : t -> int -> on_done:(int -> unit) -> unit
(** Change the number of active banks: waits for the banks to drain,
    flushes them (writebacks cost cycles), then switches the interleave.
    [on_done] receives the number of dirty lines written back. *)

(** {2 Fault injection and recovery} *)

val inject :
  t -> rollback:bool -> Fault.event ->
  [ `Applied | `Absorbed | `Unrecoverable of string ]
(** Apply one fault at an ["l2d"] or ["mmu"] site. A failed bank loses
    its queued and in-flight requests (the access deadline recovers
    them) and a morph-style re-bank spreads the interleave over the
    survivors; with none left the MMU serves straight from DRAM.
    [Corrupt_storage] hits one resident bank line ({!corrupt_bank});
    dirty lines are eligible, and preferred, only under [rollback].
    Other kinds go to the tile's {!Vat_tiled.Service}. An MMU fail-stop
    is [`Unrecoverable "MMU"].
    @raise Invalid_argument for any other role. *)

val alive_banks : t -> int
val bank_alive : t -> int -> bool

(** {2 Transient corruption}

    The banks model parity: a detected-corrupt {e clean} line is scrubbed
    and refetched from DRAM (the access just costs more cycles); a
    detected-corrupt {e dirty} line lost the only copy of its data, so the
    fatal handler fires — the run ends in a clean fault, never a silent
    wrong value. *)

val set_fatal_handler : t -> (bank:int -> string -> unit) -> unit
(** Called on an uncorrectable parity error with the offending physical
    bank (typically {!Exec.abort}; a rollback-armed VM instead records
    the bank as the quarantine target for the next recovery attempt). *)

val corrupt_bank :
  ?prefer_dirty:bool ->
  t -> int -> salt:int -> allow_dirty:bool -> [ `Clean | `Dirty | `Absorbed ]
(** Flip bits in a resident line of physical bank [i] (see
    {!Vat_tiled.Cache.corrupt_line}). *)

val quarantine : t -> threshold:int -> unit
(** The quarantine monitor's step for this component: retire every bank
    whose detected parity events ({!bank_corruptions}) have reached
    [threshold] — same mechanics as a bank fail-stop, separate
    accounting. Never retires the last alive bank (a policy monitor must
    not finish off the machine; an actual fault still can). *)

val recovery_retire_bank : t -> int -> unit
(** Unguarded retirement used by rollback-recovery when a bank holds
    provably poisoned dirty data: even the last bank goes (the MMU then
    serves uncached from DRAM), counted under
    ["recovery.quarantined_banks"]. *)

val bank_corruptions : t -> int array
(** Detected parity events per physical bank (what {!quarantine}
    compares against its threshold). *)

val bank_queue_total : t -> int

val record_totals : t -> unit
(** Once, at the end of a run: add the TLB hit/miss counts, the MMU and
    bank services' queue high-water marks (["svc.*_queue_hwm"]) and
    their lost, garbled and redelivered messages to the stats. *)

val tlb_hits : t -> int
val tlb_misses : t -> int

val capture : t -> string
(** Checkpoint section payload: TLB contents, banking geometry, per-bank
    cache digests, and every service's mutable scalars. Pure
    observation — capturing never perturbs timing. *)
