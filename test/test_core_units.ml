(* Unit tests for the DBT core's data structures: the three code-cache
   levels, the speculation queues, and the analysis module. *)

open Vat_desim
open Vat_host
open Vat_core

let dummy_block ?(addr = 0x1000) ?(host_insns = 20) ?(term = Block.T_jmp { target = 0x2000 })
    () : Block.t =
  let code = Array.make host_insns Hinsn.Nop in
  { guest_addr = addr;
    guest_len = 16;
    guest_insns = 5;
    code;
    term;
    optimized = true;
    translation_cycles = 100;
    page_lo = addr / 4096;
    page_hi = addr / 4096;
    checksum = Block.checksum_of ~guest_addr:addr ~code ~term }

(* --- L1 code cache ----------------------------------------------------- *)

let test_l1_tight_pack_flush () =
  let block = dummy_block () in
  let size = Block.size_bytes block in
  let capacity = size * 4 in
  let l1 = Code_cache.L1.create ~capacity in
  for i = 0 to 3 do
    ignore (Code_cache.L1.install l1 (dummy_block ~addr:(0x1000 + (i * 64)) ()))
  done;
  Alcotest.(check int) "packed" (4 * size) (Code_cache.L1.used_bytes l1);
  Alcotest.(check int) "no flush yet" 0 (Code_cache.L1.flushes l1);
  (* One more does not fit: the whole cache flushes first. *)
  ignore (Code_cache.L1.install l1 (dummy_block ~addr:0x9000 ()));
  Alcotest.(check int) "flushed" 1 (Code_cache.L1.flushes l1);
  Alcotest.(check int) "only newcomer" size (Code_cache.L1.used_bytes l1);
  Alcotest.(check bool) "old entry gone" true
    (Code_cache.L1.find l1 0x1000 = None)

let test_l1_chaining_fields () =
  let l1 = Code_cache.L1.create ~capacity:100_000 in
  let a = Code_cache.L1.install l1 (dummy_block ~addr:0x1000 ()) in
  let b = Code_cache.L1.install l1 (dummy_block ~addr:0x2000 ()) in
  a.chain_taken <- Some b;
  (match Code_cache.L1.find l1 0x1000 with
   | Some e ->
     Alcotest.(check bool) "chain set" true
       (match e.chain_taken with Some x -> x == b | None -> false)
   | None -> Alcotest.fail "entry lost");
  Code_cache.L1.flush l1;
  Alcotest.(check bool) "gone after flush" true (Code_cache.L1.find l1 0x2000 = None)

(* --- L1.5 -------------------------------------------------------------- *)

let test_l15_lru_eviction () =
  let block_size = Block.size_bytes (dummy_block ()) in
  let l15 = Code_cache.L15.create ~capacity:(block_size * 3) in
  List.iter
    (fun a -> Code_cache.L15.install l15 (dummy_block ~addr:a ()))
    [ 0x1000; 0x2000; 0x3000 ];
  (* Touch 0x1000 so 0x2000 becomes LRU; a fourth block evicts it. *)
  ignore (Code_cache.L15.find l15 0x1000);
  Code_cache.L15.install l15 (dummy_block ~addr:0x4000 ());
  Alcotest.(check bool) "refreshed survives" true
    (Code_cache.L15.find l15 0x1000 <> None);
  Alcotest.(check bool) "LRU evicted" true
    (Code_cache.L15.find l15 0x2000 = None)

let test_l15_drop_page () =
  let l15 = Code_cache.L15.create ~capacity:1_000_000 in
  Code_cache.L15.install l15 (dummy_block ~addr:0x1000 ());
  Code_cache.L15.install l15 (dummy_block ~addr:0x5000 ());
  Code_cache.L15.drop_page l15 (0x1000 / 4096);
  Alcotest.(check bool) "same page dropped" true
    (Code_cache.L15.find l15 0x1000 = None);
  Alcotest.(check bool) "other page kept" true
    (Code_cache.L15.find l15 0x5000 <> None)

(* --- L2 + page registry ------------------------------------------------ *)

let test_l2_page_registry () =
  let l2 = Code_cache.L2.create ~capacity:(1 lsl 24) in
  Code_cache.L2.install l2 (dummy_block ~addr:0x1000 ());
  Code_cache.L2.install l2 (dummy_block ~addr:0x1040 ());
  Code_cache.L2.install l2 (dummy_block ~addr:0x5000 ());
  Alcotest.(check bool) "page 1 has code" true
    (Code_cache.L2.page_has_code l2 ~page:1);
  Alcotest.(check bool) "page 2 empty" false
    (Code_cache.L2.page_has_code l2 ~page:2);
  Alcotest.(check int) "invalidate drops both" 2
    (Code_cache.L2.invalidate_page l2 ~page:1);
  Alcotest.(check bool) "registry updated" false
    (Code_cache.L2.page_has_code l2 ~page:1);
  Alcotest.(check int) "one block left" 1 (Code_cache.L2.blocks l2)

let test_l2_reinstall_same_addr () =
  let l2 = Code_cache.L2.create ~capacity:(1 lsl 24) in
  Code_cache.L2.install l2 (dummy_block ~addr:0x1000 ~host_insns:10 ());
  let used1 = Code_cache.L2.used_bytes l2 in
  Code_cache.L2.install l2 (dummy_block ~addr:0x1000 ~host_insns:30 ());
  Alcotest.(check int) "single entry" 1 (Code_cache.L2.blocks l2);
  Alcotest.(check bool) "bytes replaced, not leaked" true
    (Code_cache.L2.used_bytes l2 > used1
     && Code_cache.L2.used_bytes l2 < used1 * 4)

(* --- Speculation queues ------------------------------------------------ *)

let mk_spec ?(cfg = Config.default) () = Spec.create cfg (Stats.create ())

let test_spec_priorities () =
  let s = mk_spec () in
  (* Deep speculation first, then a demand request: demand pops first. *)
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jmp { target = 0xAAAA }) ());
  Spec.request_demand s 0xBBBB;
  Alcotest.(check (option int)) "demand first" (Some 0xBBBB) (Spec.pop s);
  Alcotest.(check (option int)) "then speculation" (Some 0xAAAA) (Spec.pop s)

let test_spec_promotion_dedup () =
  let s = mk_spec () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jmp { target = 0xAAAA }) ());
  (* The same address becomes a demand miss: promoted, not duplicated. *)
  Spec.request_demand s 0xAAAA;
  Alcotest.(check (option int)) "promoted" (Some 0xAAAA) (Spec.pop s);
  Alcotest.(check (option int)) "no stale duplicate" None (Spec.pop s)

let test_spec_backward_taken_priority () =
  let s = mk_spec () in
  (* A backward conditional: the taken (backward) arm must pop first. *)
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000
       ~term:(Block.T_jcc { taken = 0x100; fall = 0x9100 })
       ());
  Alcotest.(check (option int)) "backward taken first" (Some 0x100) (Spec.pop s)

let test_spec_return_predictor () =
  let s = mk_spec () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000
       ~term:(Block.T_call { target = 0x4000; ret = 0x9010 })
       ());
  Alcotest.(check (option int)) "callee before return" (Some 0x4000) (Spec.pop s);
  Alcotest.(check (option int)) "return address queued" (Some 0x9010) (Spec.pop s);
  (* Without the return predictor the return address is not queued. *)
  let s2 = mk_spec ~cfg:{ Config.default with return_predictor = false } () in
  Spec.note_block_translated s2
    (dummy_block ~addr:0x9000
       ~term:(Block.T_call { target = 0x4000; ret = 0x9010 })
       ());
  Alcotest.(check (option int)) "callee" (Some 0x4000) (Spec.pop s2);
  Alcotest.(check (option int)) "no return entry" None (Spec.pop s2)

let test_spec_no_speculation_mode () =
  let s = mk_spec ~cfg:{ Config.default with speculation = false } () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jmp { target = 0xAAAA }) ());
  Alcotest.(check (option int)) "conservative: nothing queued" None (Spec.pop s)

let test_spec_indirect_stops () =
  let s = mk_spec () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jind { kind = Block.K_jump }) ());
  Alcotest.(check (option int)) "no speculation past indirect" None (Spec.pop s)

let test_spec_forget_done () =
  let s = mk_spec () in
  Spec.request_demand s 0x1000;
  Alcotest.(check (option int)) "pop" (Some 0x1000) (Spec.pop s);
  Spec.mark_done s 0x1000;
  Spec.request_demand s 0x1000;
  Alcotest.(check (option int)) "done blocks requeue" None (Spec.pop s);
  Spec.forget_done s 0x1000;
  Spec.request_demand s 0x1000;
  Alcotest.(check (option int)) "after forget it requeues" (Some 0x1000)
    (Spec.pop s)

(* --- Analysis ---------------------------------------------------------- *)

let test_analysis_decomposition () =
  let d = Analysis.paper_decomposition in
  (* The paper computes 3.9 * 1.3 * 1.1 = 5.5; our intrinsics land near. *)
  if d.memory_factor < 2.5 || d.memory_factor > 5.0 then
    Alcotest.failf "memory factor %.2f out of range" d.memory_factor;
  Alcotest.(check (float 1e-9)) "ilp" 1.3 d.ilp_factor;
  Alcotest.(check (float 1e-9)) "flags" 1.1 d.flags_factor;
  if d.expected_slowdown < 3.5 || d.expected_slowdown > 7.0 then
    Alcotest.failf "expected slowdown %.2f out of range" d.expected_slowdown

let test_analysis_intrinsics_match_fig11 () =
  let i = Analysis.emulator_intrinsics in
  Alcotest.(check int) "L1 lat" 6 i.l1_hit_latency;
  Alcotest.(check int) "L1 occ" 4 i.l1_hit_occupancy;
  (* Paper: lat 87 / 151; calibrated within a few cycles. *)
  if abs (i.l2_hit_latency - 87) > 5 then
    Alcotest.failf "L2 hit latency %d too far from 87" i.l2_hit_latency;
  if abs (i.l2_miss_latency - 151) > 5 then
    Alcotest.failf "L2 miss latency %d too far from 151" i.l2_miss_latency

let test_cpi_monotone () =
  let i = Analysis.emulator_intrinsics in
  let cpi l2m =
    Analysis.cpi i ~mem_access_rate:0.3 ~l1_miss_rate:0.1 ~l2_miss_rate:l2m
      ~non_mem_cpi:1.0
  in
  if not (cpi 0.5 > cpi 0.1) then Alcotest.fail "CPI not monotone in miss rate"

let suite =
  [ Alcotest.test_case "L1: tight packing + flush" `Quick test_l1_tight_pack_flush;
    Alcotest.test_case "L1: chaining fields" `Quick test_l1_chaining_fields;
    Alcotest.test_case "L1.5: LRU eviction" `Quick test_l15_lru_eviction;
    Alcotest.test_case "L1.5: drop page" `Quick test_l15_drop_page;
    Alcotest.test_case "L2: page registry" `Quick test_l2_page_registry;
    Alcotest.test_case "L2: reinstall same address" `Quick
      test_l2_reinstall_same_addr;
    Alcotest.test_case "spec: demand beats speculation" `Quick
      test_spec_priorities;
    Alcotest.test_case "spec: promotion dedup" `Quick test_spec_promotion_dedup;
    Alcotest.test_case "spec: backward-taken prediction" `Quick
      test_spec_backward_taken_priority;
    Alcotest.test_case "spec: return predictor" `Quick test_spec_return_predictor;
    Alcotest.test_case "spec: conservative mode" `Quick
      test_spec_no_speculation_mode;
    Alcotest.test_case "spec: stops at indirect" `Quick test_spec_indirect_stops;
    Alcotest.test_case "spec: forget_done" `Quick test_spec_forget_done;
    Alcotest.test_case "analysis: 4.5 decomposition" `Quick
      test_analysis_decomposition;
    Alcotest.test_case "analysis: Figure 11 intrinsics" `Quick
      test_analysis_intrinsics_match_fig11;
    Alcotest.test_case "analysis: CPI monotone" `Quick test_cpi_monotone ]
