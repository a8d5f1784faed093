(** The paper's §4.5 performance-loss analysis.

    Architecture intrinsics for the emulator and the Pentium III
    (Figure 11), the CPI formula, and the 3.9x (memory) * 1.3x (ILP) *
    1.1x (condition codes) = 5.5x expected-slowdown decomposition. *)

type intrinsics = {
  l1_hit_latency : int;
  l1_hit_occupancy : int;
  l2_hit_latency : int;
  l2_hit_occupancy : int;
  l2_miss_latency : int;
  l2_miss_occupancy : int;
  exec_units : int;
}

val emulator_intrinsics : intrinsics
(** Computed from {!Config}'s cost constants and the floorplan's
    network latencies (uses bank 0's position). *)

val piii_intrinsics : intrinsics
(** The paper's Figure 11 column: 3/1, 7/1, 79/1, 3 execution units. *)

val cpi :
  intrinsics ->
  mem_access_rate:float ->
  l1_miss_rate:float ->
  l2_miss_rate:float ->
  non_mem_cpi:float ->
  float
(** The occupancy-based CPI formula of §4.5, verbatim. *)

type decomposition = {
  memory_factor : float;  (** emulator CPI / PIII CPI, paper: 3.9 *)
  ilp_factor : float;     (** realized PIII ILP, paper: 1.3 *)
  flags_factor : float;   (** conditional-branch expansion, paper: 1.1 *)
  expected_slowdown : float;  (** product, paper: 5.5 *)
}

val decompose :
  mem_access_rate:float ->
  l1_miss_rate:float ->
  l2_miss_rate:float ->
  decomposition
(** Evaluate the decomposition with measured (or the paper's Cantin-Hill)
    miss rates, holding [mem_access_rate] and non-memory CPI fixed across
    both machines as §4.5 does. *)

val paper_decomposition : decomposition
(** With the paper's numbers: mem rate 0.3, SpecInt miss rates from the
    Cantin & Hill data (L1 6%, L2 25%), non-memory CPI 1. *)
