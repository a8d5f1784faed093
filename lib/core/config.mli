(** Virtual-architecture configuration: tile-role allocation, feature
    toggles and fault-tolerance parameters (the fields of {!t}), plus the
    capacities and calibrated cycle costs, which no experiment varies and
    so are plain constants.

    The cost constants are calibrated so the simulated memory-system
    intrinsics match the paper's Figure 11 (emulator L1 data hit latency 6 /
    occupancy 4; L2 data hit latency and occupancy 87; L2 miss latency 151)
    and translation occupies slave tiles for realistic spans. *)

type morph_policy =
  | No_morph
  | Morph of { threshold : int; dwell : int }
      (** Reconfigure between translator-heavy (9 trans / 1 L2D bank) and
          memory-heavy (6 trans / 4 L2D banks) when the translate-queue
          length crosses [threshold]; [dwell] is the minimum number of
          cycles between reconfigurations (hysteresis). *)

type t = {
  (* Tile-role structure. The grid has 16 tiles: 1 runtime-execution,
     1 MMU/TLB, 1 manager/L2 code cache, 1 syscall, [n_l15_banks] L1.5
     banks, and the remaining tiles split between translator slaves and L2
     data-cache banks. *)
  n_translators : int;
  n_l2d_banks : int;
  n_l15_banks : int;
  (* Feature toggles (ablations). *)
  speculation : bool;
  optimize : bool;
  chaining : bool;
  return_predictor : bool;
  priority_queues : bool;   (** false = one FIFO regardless of depth *)
  scoreboard : bool;        (** false = every load stalls to completion *)
  superblocks : bool;
      (** Merge translation across forward direct jumps: longer blocks for
          the optimizer to chew on, at the cost of code duplication when
          execution enters mid-trace (bigger code-cache footprint). *)
  morph : morph_policy;
  max_block_insns : int;     (** guest instructions per translation block *)
  (* Fault tolerance. When [fault_tolerance] is off (the default) none of
     the recovery machinery is armed and timing is identical to a build
     without it; {!Vm.run} arms it automatically when given a non-empty
     fault plan. *)
  fault_tolerance : bool;
  fill_deadline_cycles : int;
      (** Base deadline for a code fill before it is retried. *)
  fill_max_retries : int;
  mem_deadline_cycles : int;
      (** Base deadline for a data-memory access before it is retried. *)
  watchdog_stall_cycles : int;
      (** Abort when no guest instruction retires for this many cycles. *)
  checksum_cycles : int;
      (** Occupancy to compute/verify a translated block's checksum at an
          integrity checkpoint (translation install, cache fetch, L1
          install). Charged only when fault tolerance is armed. *)
  ack_deadline_cycles : int;
      (** Base deadline for a slave's install message to be acknowledged
          by the manager before it is retransmitted. *)
  ack_max_retries : int;
      (** Install retransmissions before the translation is requeued
          wholesale (backoff multiplies the deadline each time). *)
  quarantine_threshold : int;
      (** Corruption events charged to one site (slave, L1.5 bank, L2D
          bank) before the quarantine monitor retires it like a fail-stop
          tile. 0 disables quarantine. *)
}

val default : t
(** 6 translators / 4 L2D banks / 2 L1.5 banks, speculation and
    optimization on, no morphing. *)

(** {2 Capacities and calibrated costs}

    No experiment varies these, so they are constants, not fields. *)

val l1_code_bytes : int
val l15_bank_bytes : int
val l2_code_bytes : int
val l1d_bytes : int
val l1d_ways : int
val l2d_bank_bytes : int
val l2d_ways : int
val line_bytes : int
val tlb_entries : int
(* Execution-tile costs. *)
val l1d_hit_latency : int
val l1d_occupancy : int
val dispatch_cycles : int  (* L1 code-cache lookup in the dispatch loop *)
val chain_cycles : int     (* chained block-to-block transfer *)
val l1_install_bytes_per_cycle : int
val max_outstanding : int  (* in-flight load misses under the scoreboard *)
(* Code-cache service costs. *)
val l15_lookup_cycles : int
val mgr_lookup_cycles : int
val mgr_install_cycles : int
(* Translation costs (slave occupancy). *)
val translate_base_cycles : int
val translate_per_guest_insn : int
val optimize_per_host_insn : int
(* Data-memory pipeline costs. *)
val mmu_tlb_hit_cycles : int
val mmu_walk_cycles : int
val l2d_bank_cycles : int
val dram_cycles : int
val writeback_cycles : int
(* Syscall tile. *)
val syscall_base_cycles : int
val syscall_per_byte_cycles : int
(* Reconfiguration costs. *)
val morph_flush_per_line : int
val morph_role_switch_cycles : int
val sample_interval : int
(* Fault tolerance. *)
val fill_backoff_mult : int
(** Each retry multiplies the deadline (exponential backoff). *)

val mem_max_retries : int
val demand_translate_penalty_cycles : int
(** Extra cycles when the manager demand-translates a block itself (the
    degraded path after fill retries are exhausted). *)

val validate : t -> (unit, string) result
(** Check the role allocation fits the 16-tile grid and parameters are
    sane. *)

val trans_heavy : t -> t
(** The 9-translator / 1-bank end of the morphing pair, preserving other
    settings. *)

val mem_heavy : t -> t
(** The 6-translator / 4-bank end. *)
