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
  l1_code_bytes : int;
  l15_bank_bytes : int;
  l2_code_bytes : int;
  l1d_bytes : int;
  l1d_ways : int;
  l2d_bank_bytes : int;
  l2d_ways : int;
  line_bytes : int;
  tlb_entries : int;
  max_block_insns : int;
  l1d_hit_latency : int;
  l1d_occupancy : int;
  dispatch_cycles : int;
  chain_cycles : int;
  l1_install_bytes_per_cycle : int;
  max_outstanding : int;
  l15_lookup_cycles : int;
  mgr_lookup_cycles : int;
  mgr_install_cycles : int;
  translate_base_cycles : int;
  translate_per_guest_insn : int;
  optimize_per_host_insn : int;
  mmu_tlb_hit_cycles : int;
  mmu_walk_cycles : int;
  l2d_bank_cycles : int;
  dram_cycles : int;
  writeback_cycles : int;
  syscall_base_cycles : int;
  syscall_per_byte_cycles : int;
  morph_flush_per_line : int;
  morph_role_switch_cycles : int;
  sample_interval : int;
  fault_tolerance : bool;
  fill_deadline_cycles : int;
  fill_max_retries : int;
  fill_backoff_mult : int;
  mem_deadline_cycles : int;
  mem_max_retries : int;
  demand_translate_penalty_cycles : int;
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
    l1_code_bytes = 24 * 1024;        (* 32 KB IMem minus the runtime *)
    l15_bank_bytes = 64 * 1024;
    l2_code_bytes = 105 * 1024 * 1024;
    l1d_bytes = 32 * 1024;
    l1d_ways = 2;
    l2d_bank_bytes = 32 * 1024;
    l2d_ways = 4;
    line_bytes = 32;
    tlb_entries = 64;
    max_block_insns = 32;
    (* Figure 11 intrinsics: L1 hit lat 6 / occ 4. *)
    l1d_hit_latency = 6;
    l1d_occupancy = 4;
    dispatch_cycles = 30;
    chain_cycles = 1;
    l1_install_bytes_per_cycle = 2;
    max_outstanding = 4;
    l15_lookup_cycles = 18;
    mgr_lookup_cycles = 40;
    mgr_install_cycles = 12;
    translate_base_cycles = 150;
    translate_per_guest_insn = 60;
    optimize_per_host_insn = 14;
    (* Calibrated so exec->MMU->bank->exec round trips land near lat 87
       for an L2 hit and 151 for an L2 miss (Figure 11). *)
    mmu_tlb_hit_cycles = 26;
    mmu_walk_cycles = 60;
    l2d_bank_cycles = 45;
    dram_cycles = 64;
    writeback_cycles = 10;
    syscall_base_cycles = 400;
    syscall_per_byte_cycles = 2;
    morph_flush_per_line = 4;
    morph_role_switch_cycles = 2500;
    sample_interval = 1000;
    fault_tolerance = false;
    fill_deadline_cycles = 6000;
    fill_max_retries = 3;
    fill_backoff_mult = 2;
    mem_deadline_cycles = 4000;
    mem_max_retries = 3;
    demand_translate_penalty_cycles = 300;
    watchdog_stall_cycles = 1_000_000;
    checksum_cycles = 8;
    ack_deadline_cycles = 6000;
    ack_max_retries = 3;
    quarantine_threshold = 4 }

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
  else if t.line_bytes <= 0 || t.l1d_bytes mod (t.l1d_ways * t.line_bytes) <> 0
  then Error "L1D geometry invalid"
  else if t.max_block_insns < 1 then Error "max_block_insns must be positive"
  else if t.fault_tolerance
          && (t.fill_deadline_cycles < 1 || t.mem_deadline_cycles < 1
              || t.fill_max_retries < 0 || t.mem_max_retries < 0
              || t.fill_backoff_mult < 1 || t.watchdog_stall_cycles < 1
              || t.checksum_cycles < 0 || t.ack_deadline_cycles < 1
              || t.ack_max_retries < 0 || t.quarantine_threshold < 0)
  then Error "fault-tolerance parameters invalid"
  else Ok ()

let trans_heavy t = { t with n_translators = 9; n_l2d_banks = 1 }
let mem_heavy t = { t with n_translators = 6; n_l2d_banks = 4 }
