open Vat_tiled

type intrinsics = {
  l1_hit_latency : int;
  l1_hit_occupancy : int;
  l2_hit_latency : int;
  l2_hit_occupancy : int;
  l2_miss_latency : int;
  l2_miss_occupancy : int;
  exec_units : int;
}

let emulator_intrinsics =
  let layout = Layout.create (Grid.create ()) in
  let to_mmu = Layout.lat_exec_mmu layout in
  let to_bank = Layout.lat_mmu_bank layout 0 in
  let back = Layout.lat_bank_exec layout 0 in
  let l2_hit =
    Config.l1d_occupancy + to_mmu + Config.mmu_tlb_hit_cycles + to_bank
    + Config.l2d_bank_cycles + back
  in
  let l2_miss = l2_hit + Config.dram_cycles in
  { l1_hit_latency = Config.l1d_hit_latency;
    l1_hit_occupancy = Config.l1d_occupancy;
    l2_hit_latency = l2_hit;
    (* The transactor pipeline's serial occupancy: MMU plus bank stages. *)
    l2_hit_occupancy = Config.mmu_tlb_hit_cycles + Config.l2d_bank_cycles;
    l2_miss_latency = l2_miss;
    l2_miss_occupancy =
      Config.mmu_tlb_hit_cycles + Config.l2d_bank_cycles + Config.dram_cycles;
    exec_units = 1 }

let piii_intrinsics =
  { l1_hit_latency = 3;
    l1_hit_occupancy = 1;
    l2_hit_latency = 7;
    l2_hit_occupancy = 1;
    l2_miss_latency = 79;
    l2_miss_occupancy = 1;
    exec_units = 3 }

let cpi i ~mem_access_rate ~l1_miss_rate ~l2_miss_rate ~non_mem_cpi =
  let l1h = float_of_int i.l1_hit_occupancy in
  let l2h = float_of_int i.l2_hit_occupancy in
  let l2m = float_of_int i.l2_miss_occupancy in
  (mem_access_rate
   *. (((1. -. l1_miss_rate) *. l1h)
       +. (l1_miss_rate
           *. (((1. -. l2_miss_rate) *. l2h) +. (l2_miss_rate *. l2m)))))
  +. ((1. -. mem_access_rate) *. non_mem_cpi)

type decomposition = {
  memory_factor : float;
  ilp_factor : float;
  flags_factor : float;
  expected_slowdown : float;
}

let decompose ~mem_access_rate ~l1_miss_rate ~l2_miss_rate =
  let emu =
    cpi emulator_intrinsics ~mem_access_rate ~l1_miss_rate ~l2_miss_rate
      ~non_mem_cpi:1.0
  in
  let ref_cpi =
    cpi piii_intrinsics ~mem_access_rate ~l1_miss_rate ~l2_miss_rate
      ~non_mem_cpi:1.0
  in
  let memory_factor = emu /. ref_cpi in
  let ilp_factor = 1.3 in
  (* One extra instruction per conditional branch, branches ~1 in 10. *)
  let flags_factor = 1.1 in
  { memory_factor;
    ilp_factor;
    flags_factor;
    expected_slowdown = memory_factor *. ilp_factor *. flags_factor }

let paper_decomposition =
  decompose ~mem_access_rate:0.3 ~l1_miss_rate:0.06 ~l2_miss_rate:0.25
