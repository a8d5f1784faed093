open Vat_desim

(** The L2 code-cache manager tile, the banked L1.5 code-cache tiles, and
    the translation-slave tiles (paper Figure 3).

    The manager owns the main-memory code cache and coordinates
    speculative parallel translation: it serves fill requests from the
    execution tile (optionally through an L1.5 bank), and hands queued
    addresses to idle slave tiles. Slaves run the real translator
    ({!Translate}) and are occupied for the block's translation cost.
    There is no preemption: a demand miss waits for a free slave, which is
    the effect behind the paper's vpr/gcc/crafty anomaly in Figure 5. *)

type t

val create :
  ?memo:Translate.Memo.t ->
  ?trace:Vat_trace.Trace.t ->
  Event_queue.t ->
  Stats.t ->
  Config.t ->
  Layout.t ->
  fetch:(int -> int) ->
  page_gen:(page:int -> int) ->
  t
(** [page_gen] reads a guest page's store-generation counter; translations
    are validated against it at install time so stores racing with an
    in-flight translation cannot install stale code. [memo] lets runs over
    the same guest image share translations (see {!Translate.Memo});
    timing is unaffected. [trace] (default {!Vat_trace.Trace.disabled})
    records per-tile timelines: service occupancy spans on the "manager"
    and "l15.N" tracks, translate spans on "slave.N", L2/L1.5 code-cache
    hit/miss/install events, and recovery-path instants. Tracing only
    observes; simulated cycle counts are unchanged. *)

val seed : t -> int -> unit
(** Queue the program entry point before the run starts. *)

val request_fill : t -> addr:int -> on_ready:(Block.t -> unit) -> unit
(** Execution-tile L1 code miss. [on_ready] fires when the block arrives
    back at the execution tile (it still pays L1 install cost there). *)

val note_on_path : t -> int -> unit
(** The engine entered this address (resets speculation depth). *)

val page_has_code : t -> page:int -> bool

val invalidate_page : t -> page:int -> unit
(** Self-modifying code: drop blocks on this page from L2 and the L1.5
    banks. (The execution tile flushes its own L1.) *)

val queue_length : t -> int
(** Blocks awaiting translation — the morph trigger metric. *)

val mgr_queue_length : t -> int
(** Requests waiting at (or in service on) the manager tile right now. *)

val active_slaves : t -> int

val set_active_slaves : t -> int -> on_done:(unit -> unit) -> unit
(** Morphing: raise or lower the number of slave tiles. Lowering waits for
    the affected slaves to finish their current block. Fail-stopped slaves
    are never reactivated; the target is met from surviving tiles. *)

(** {2 Fault injection and recovery}

    With {!Config.t.fault_tolerance} armed, {!request_fill} carries a
    per-request deadline: a fill whose reply does not arrive is retried
    with exponential backoff, and after the retry budget is spent the
    manager demand-translates the block itself (degraded but correct).

    End-to-end integrity: every code delivery (fill reply, install
    message) carries the sender's copy of the block checksum, and every
    receiver verifies it before the code may be cached or executed. A
    garbled fill is discarded at the execution tile and the deadline
    machinery fetches a clean copy; a garbled install draws no ack and the
    slave retransmits (sequence numbers make duplicate deliveries
    idempotent); a resident L2/L1.5 line whose stored sum stops matching
    is dropped and retranslated on demand. Corrupt code is never run. *)

val inject :
  t -> Fault.event -> [ `Applied | `Absorbed | `Unrecoverable of string ]
(** Apply one fault at a ["translator"], ["l15"] or ["manager"] site. A
    failed slave is evicted for good (its in-flight translation is
    requeued); a failed L1.5 bank's lookups re-route to the manager.
    [Corrupt_storage] flips the stored sum of one resident L1.5 or L2
    code line ([`Absorbed] when the store is empty); other kinds go to
    the tile's {!Vat_tiled.Service}. Corruption aimed at a slave is
    [`Absorbed]; a manager fail-stop is [`Unrecoverable "manager"].
    @raise Invalid_argument for any other role. *)

val usable_slaves : t -> int
(** Slaves that have not fail-stopped (the morph ceiling). *)

val quarantine : t -> threshold:int -> unit
(** The quarantine monitor's step for this component: retire every slave,
    then every L1.5 bank, whose detected-corruption count (garbled
    installs charged to a slave's link; garbled or corrupt-resident
    deliveries at a bank) has reached [threshold] — same mechanics as a
    fail-stop, separate accounting. Never retires the last usable slave
    (a policy monitor must not reduce the machine to demand-translation
    forever; a real fail-stop still can). Retiring is idempotent. *)

val record_totals : t -> unit
(** Once, at the end of a run: add the manager and L1.5 services' queue
    high-water marks (["svc.*_queue_hwm"]) and lost, garbled and
    redelivered messages to the stats. *)

val capture : t -> string
(** Checkpoint section payload: slave states, code-cache digests,
    speculation-queue digest, install-ack protocol state, service
    scalars. Pure observation — capturing never perturbs timing. *)
