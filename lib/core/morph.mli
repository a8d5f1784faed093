open Vat_desim

(** Dynamic virtual-architecture reconfiguration.

    A centralized manager samples the length of the blocks-to-be-translated
    queues and trades L2 data-cache tiles against translation tiles at
    runtime: queue length above the threshold means translation is starved
    (morph to 9 translators / 1 bank); at or below it the memory system
    deserves the tiles (6 translators / 4 banks). Reconfiguration pays for
    draining, cache flushes and role switches, and a dwell time provides
    hysteresis. *)

type t

val create :
  ?trace:Vat_trace.Trace.t ->
  Event_queue.t -> Stats.t -> Config.t -> Manager.t -> Memsys.t -> t
(** Starts the sampling loop when the configuration enables morphing;
    otherwise inert. [trace] (default disabled) records each morph
    decision and the sampled translate-queue length on the "morph" track.

    With {!Config.t.fault_tolerance} armed and a positive
    {!Config.t.quarantine_threshold}, also starts the quarantine monitor:
    every sample interval it retires any translation slave, L1.5 bank, or
    L2D bank whose detected-corruption count has crossed the threshold,
    using the same machinery as fail-stop eviction (a persistently flaky
    tile is treated as a dead one). *)

val capture : t -> int list
(** The monitor's mutable scalars (morphing flag, last-morph cycle) for
    checkpointing. The morph count is the [morph.reconfigurations]
    counter. *)
