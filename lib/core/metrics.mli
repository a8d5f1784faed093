(** Figure-level metrics extracted from a finished simulation. *)

val l2_code_accesses_per_cycle : Vm.result -> float
(** Figure 6's y axis. *)

val l2_code_miss_rate : Vm.result -> float
(** Figure 7's y axis: L2 code-cache misses per L2 code-cache access. *)

val chain_rate : Vm.result -> float
(** Chained transfers per block transition. *)

val mem_access_rate : Vm.result -> float
(** Guest data accesses per guest instruction (feeds {!Analysis}). *)

val l1d_miss_rate : Vm.result -> float
val reconfigurations : Vm.result -> int

(** {2 Service-queue high-water marks}

    The largest queue each shared tile ever accumulated (waiting plus in
    service), recorded unconditionally at the end of every run — the
    congestion signature behind the paper's Figure 5 without needing a
    full trace. {!summary} reports the other three tiles' marks. *)

val mgr_queue_hwm : Vm.result -> int

(** {2 Fault and recovery counters} (all zero on a fault-free run) *)

val faults_injected : Vm.result -> int
val failed_tiles : Vm.result -> int
val fault_timeouts : Vm.result -> int
(** Requests whose deadline expired (code fills + data accesses). *)

val fault_retries : Vm.result -> int
val dropped_requests : Vm.result -> int
(** Requests lost at failed or lossy tiles. *)

val degraded_events : Vm.result -> int
(** Times a degraded path ran: manager demand-translations, direct-DRAM
    data accesses, re-banks, and L1.5 re-routes. *)

val watchdog_aborts : Vm.result -> int

(** {2 End-to-end integrity counters} (all zero on a fault-free run) *)

val corruptions_injected : Vm.result -> int
(** Corruption-class fault events applied (payload, storage, duplicate). *)

val corruptions_detected : Vm.result -> int
(** Checksum mismatches, parity events, and duplicate installs caught at
    any integrity checkpoint. *)

val corruptions_corrected : Vm.result -> int
(** Detected events repaired without losing work: parity scrubs, install
    retransmissions, and idempotently re-acked duplicates (discard-and-
    refetch recoveries surface in the detected count and in
    {!degraded_events}). *)

val quarantined_tiles : Vm.result -> int
(** Slaves, L1.5 banks, and L2D banks retired by the quarantine monitor. *)

val silent_corruptions : Vm.result -> int
(** Corrupt blocks executed unnoticed. The integrity invariant is that
    this is identically zero whenever fault tolerance is armed. *)

val recoveries : Vm.result -> int
(** Rollback-recoveries performed: previously-terminal faults survived by
    restoring a checkpoint and quarantining the failed bank or tile
    (see [Vm.run]'s [checkpoint_every]). Zero unless a rollback happened. *)

val replayed_cycles : Vm.result -> int
(** Total cycles re-simulated by those rollbacks (the recovery cost the
    paper's slowdown metric would charge). *)

val summary : Vm.result -> (string * float) list
(** Everything above, for printing; queue high-water marks appear only
    when observed (non-zero), fault and corruption counters only when a
    fault was actually injected, and recovery rows only when a rollback
    actually happened. *)

val get : Vm.result -> string -> int
(** Raw counter access. *)

val pp_result : Format.formatter -> Vm.result -> unit
