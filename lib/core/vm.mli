open Vat_desim
open Vat_guest

(** Whole-system construction and simulation: the public entry point of
    the virtual-architecture library.

    [run] builds the 16-tile virtual machine described by a {!Config} —
    execution tile, MMU/TLB tile, L2 data-cache banks, L1.5 banks, the
    code-cache manager, translation slaves, syscall tile, and (optionally)
    the morphing controller — loads the guest program, and simulates until
    the guest exits, faults, or exhausts its instruction budget. *)

type result = {
  outcome : Exec.outcome;
  cycles : int;            (** total simulated host cycles *)
  guest_insns : int;       (** retired guest instructions *)
  output : string;         (** bytes written by the guest *)
  digest : int;            (** comparable with [Interp.digest] *)
  stats : Stats.t;         (** every counter the components recorded *)
}

val run :
  ?input:string -> ?memo:Translate.Memo.t -> ?fuel:int -> ?max_cycles:int ->
  ?faults:Fault.plan -> ?trace:Vat_trace.Trace.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Vat_snapshot.Snapshot.t -> unit) ->
  ?restore_from:Vat_snapshot.Snapshot.t ->
  ?max_rollbacks:int ->
  Config.t -> Program.t ->
  result
(** [fuel] defaults to 50M guest instructions; [max_cycles] (default 2G)
    is a safety net against runaway simulations. Raises
    [Invalid_argument] if the configuration fails {!Config.validate}.

    [memo] shares translations between runs over the same guest program
    (host-side work only; modelled timing, digests and stats are
    byte-identical with or without it — see {!Translate.Memo}).

    [faults] (default empty) is a deterministic fault plan: each event is
    injected at its scheduled cycle, and a non-empty plan automatically
    arms {!Config.t.fault_tolerance} (request deadlines, retries, the
    degraded paths, and the forward-progress watchdog). Recoverable
    faults change timing but never guest-visible semantics; unrecoverable
    ones (exec/manager/MMU fail-stop) end the run with a clean [Fault]
    outcome. The same plan and program reproduce byte-identical stats.

    [trace] (default {!Vat_trace.Trace.disabled}) records a time-resolved
    event trace: per-tile service/translate/fill spans, code-cache and
    block-entry events, sampled queue depths (every
    {!Config.sample_interval} cycles, via an event-queue observation
    probe that schedules nothing), morph decisions, and fault/recovery
    instants. Tracing never changes modelled timing: a traced run's
    cycles, digest, and stats are identical to the untraced run's, and
    with the disabled recorder the whole subsystem reduces to dead
    branches. Export with {!Vat_trace.Chrome} or {!Vat_trace.Report}.

    {2 Checkpoint / rollback-recovery}

    [checkpoint_every] (off by default; [Invalid_argument] if [<= 0])
    takes a whole-machine {!Vat_snapshot.Snapshot} every that many cycles
    and hands each to [on_checkpoint]. Capturing is pure observation: a
    fault-free checkpointed run's cycles, digest, output and stats are
    byte-identical to the same run with checkpointing off.

    Checkpointing also arms rollback-recovery: the two previously-terminal
    fault families — an uncorrectable L2D parity loss (a corrupt dirty
    line) and a critical-tile fail-stop (exec/manager/MMU/syscall) — no
    longer end the run. The machine restores the last good checkpoint by
    verified deterministic replay, quarantines the offending bank or tile,
    masks the already-survived fault event, and continues; the recovery
    ledger travels inside every snapshot so resumed runs converge on the
    same decisions. After [max_rollbacks] (default 64) distinct rollbacks
    the run gives up with the legacy [Fault] outcome. Recovered runs add
    ["recovery.rollbacks"] and ["recovery.replayed_cycles"] to [stats];
    runs that never rolled back add nothing.

    [restore_from] resumes from a snapshot: the simulator re-executes from
    cycle 0 under the snapshot's own interval and ledger, checks byte-for-
    byte that every machine section matches when the snapshot cycle is
    reached, and only then treats later cycles as new ground (fresh
    checkpoints at earlier cycles are suppressed from [on_checkpoint]).
    An interrupted-and-resumed run is cycle-, digest-, and
    stats-identical to the uninterrupted one. Raises [Invalid_argument]
    if the snapshot's fingerprint does not match this
    configuration/program/input/limits/fault plan, and [Failure] if
    replay diverges from the snapshot (a determinism bug, not a user
    error). *)

val fault_menu :
  ?recoverable_only:bool -> ?classes:Fault.kind_class list -> Config.t ->
  (Fault.site * Fault.kind array) array
(** The sites of a configuration paired with the fault kinds that make
    sense for each, for {!Fault.random}. With [recoverable_only] (the
    default) every listed fault preserves guest-visible semantics —
    fail-stop translators / L2D banks / L1.5 banks, transient request
    drops, slow tiles, and (when the corruption classes are selected)
    soft-error payload/storage corruption and duplicated deliveries;
    otherwise exec/manager/MMU fail-stops are offered too.

    [classes] filters each site's kinds (default
    {!Fault.legacy_classes}, which reproduces the pre-corruption menu
    exactly, so plans drawn against old menus replay byte-identically);
    sites left with no kinds are dropped. *)

val slowdown : result -> piii_cycles:int -> float
(** Paper metric: cycles on the translator / cycles on the Pentium III. *)

(** {2 Composable instances}

    For systems hosting more than one virtual machine on the fabric
    (see {!Fabric}), instances share an event queue and stats registry and
    are driven externally. *)

type instance

val create :
  ?input:string ->
  ?memo:Translate.Memo.t ->
  ?trace:Vat_trace.Trace.t ->
  Event_queue.t ->
  Stats.t ->
  Config.t ->
  Program.t ->
  instance
(** Build the tile complex for one guest without running it. No morphing
    controller is attached (a fabric-level controller owns tile trades). *)

val start :
  instance -> fuel:int -> on_finish:(Exec.outcome -> unit) -> unit

val manager_of : instance -> Manager.t
val exec_of : instance -> Exec.t
val memsys_of : instance -> Memsys.t
