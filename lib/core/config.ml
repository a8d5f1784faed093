type morph_policy =
  | No_morph
  | Morph of { threshold : int; dwell : int }

type t = {
  n_translators : int;
  n_l2d_banks : int;
  n_l15_banks : int;
  speculation : bool;
  optimize : bool;
  chaining : bool;
  return_predictor : bool;
  priority_queues : bool;
  scoreboard : bool;
  superblocks : bool;
  morph : morph_policy;
  max_block_insns : int;
  fault_tolerance : bool;
  fill_deadline_cycles : int;
  fill_max_retries : int;
  mem_deadline_cycles : int;
  watchdog_stall_cycles : int;
  checksum_cycles : int;
  ack_deadline_cycles : int;
  ack_max_retries : int;
  quarantine_threshold : int;
}

let default =
  { n_translators = 6;
    n_l2d_banks = 4;
    n_l15_banks = 2;
    speculation = true;
    optimize = true;
    chaining = true;
    return_predictor = true;
    priority_queues = true;
    scoreboard = true;
    superblocks = false;
    morph = No_morph;
    max_block_insns = 32;
    fault_tolerance = false;
    fill_deadline_cycles = 6000;
    fill_max_retries = 3;
    mem_deadline_cycles = 4000;
    watchdog_stall_cycles = 1_000_000;
    checksum_cycles = 8;
    ack_deadline_cycles = 6000;
    ack_max_retries = 3;
    quarantine_threshold = 4 }

let l1_code_bytes = 24 * 1024        (* 32 KB IMem minus the runtime *)
let l15_bank_bytes = 64 * 1024
let l2_code_bytes = 105 * 1024 * 1024
let l1d_bytes = 32 * 1024
let l1d_ways = 2
let l2d_bank_bytes = 32 * 1024
let l2d_ways = 4
let line_bytes = 32
let tlb_entries = 64
(* Figure 11 intrinsics: L1 hit lat 6 / occ 4. *)
let l1d_hit_latency = 6
let l1d_occupancy = 4
let dispatch_cycles = 30
let chain_cycles = 1
let l1_install_bytes_per_cycle = 2
let max_outstanding = 4
let l15_lookup_cycles = 18
let mgr_lookup_cycles = 40
let mgr_install_cycles = 12
let translate_base_cycles = 150
let translate_per_guest_insn = 60
let optimize_per_host_insn = 14
(* Calibrated so exec->MMU->bank->exec round trips land near lat 87
   for an L2 hit and 151 for an L2 miss (Figure 11). *)
let mmu_tlb_hit_cycles = 26
let mmu_walk_cycles = 60
let l2d_bank_cycles = 45
let dram_cycles = 64
let writeback_cycles = 10
let syscall_base_cycles = 400
let syscall_per_byte_cycles = 2
let morph_flush_per_line = 4
let morph_role_switch_cycles = 2500
let sample_interval = 1000
let fill_backoff_mult = 2
let mem_max_retries = 3
let demand_translate_penalty_cycles = 300

let fixed_tiles = 4

let pool_tiles t = t.n_translators + t.n_l2d_banks

let validate t =
  let total = fixed_tiles + t.n_l15_banks + pool_tiles t in
  if t.n_translators < 1 then Error "need at least one translator tile"
  else if t.n_l2d_banks < 1 then Error "need at least one L2 data bank"
  else if t.n_l15_banks < 0 || t.n_l15_banks > 2 then
    Error "L1.5 banks must be 0, 1 or 2"
  else if total > 16 then
    Error (Printf.sprintf "role allocation needs %d tiles, grid has 16" total)
  else if t.max_block_insns < 1 then Error "max_block_insns must be positive"
  else if t.fault_tolerance
          && (t.fill_deadline_cycles < 1 || t.mem_deadline_cycles < 1
              || t.fill_max_retries < 0 || t.watchdog_stall_cycles < 1
              || t.checksum_cycles < 0 || t.ack_deadline_cycles < 1
              || t.ack_max_retries < 0 || t.quarantine_threshold < 0)
  then Error "fault-tolerance parameters invalid"
  else Ok ()

let trans_heavy t = { t with n_translators = 9; n_l2d_banks = 1 }
let mem_heavy t = { t with n_translators = 6; n_l2d_banks = 4 }
