(* Unit tests for the DBT core's data structures: the three code-cache
   levels, the speculation queues, and the analysis module. *)

open Vat_desim
open Vat_host
open Vat_core

let dummy_block ?(addr = 0x1000) ?(host_insns = 20) ?(term = Block.T_jmp { target = 0x2000 })
    () : Block.t =
  Block.make ~guest_addr:addr ~guest_len:16 ~guest_insns:5
    ~code:(Array.make host_insns Hinsn.Nop) ~term ~optimized:true
    ~translation_cycles:100 ~page_lo:(addr / 4096) ~page_hi:(addr / 4096)

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

(* Random install/find/remove/drop_page sequences on a bank that holds
   about three blocks, against a model that evicts the resident block
   with the smallest last-use stamp: the whole-table scan the bank once
   ran, kept here as the oracle for its recency order. *)
type l15_op =
  | L15_install of int * int * int option  (* address, host insns, sum *)
  | L15_find of int
  | L15_remove of int
  | L15_drop_page of int

let l15_addr page k = 0x1000 + (page * 0x1000) + (k * 0x40)

let l15_op_gen =
  let open QCheck.Gen in
  let addr = map2 l15_addr (int_range 0 2) (int_range 0 3) in
  frequency
    [ ( 4,
        map3
          (fun a n sum -> L15_install (a, n, sum))
          addr
          (frequency [ (8, int_range 1 40); (1, int_range 60 80) ])
          (opt ~ratio:0.3 (int_range 0 0xFFFF)) );
      (4, map (fun a -> L15_find a) addr);
      (1, map (fun a -> L15_remove a) addr);
      (1, map (fun p -> L15_drop_page (1 + p)) (int_range 0 2)) ]

let l15_op_print = function
  | L15_install (a, n, sum) ->
    Printf.sprintf "install 0x%x (%d insns%s)" a n
      (match sum with Some s -> Printf.sprintf ", sum %d" s | None -> "")
  | L15_find a -> Printf.sprintf "find 0x%x" a
  | L15_remove a -> Printf.sprintf "remove 0x%x" a
  | L15_drop_page p -> Printf.sprintf "drop_page %d" p

(* Model slot: address, size, stored sum, last-use stamp. *)
type l15_model = {
  mutable slots : (int * int * int * int) list;
  mutable m_tick : int;
}

let prop_l15_recency =
  let capacity = 3 * Block.size_bytes (dummy_block ()) in
  QCheck.Test.make ~name:"L1.5: find and used_bytes = oldest-stamp model"
    ~count:500
    QCheck.(
      make
        ~print:(Print.list l15_op_print)
        Gen.(list_size (int_range 1 120) l15_op_gen))
    (fun ops ->
      let bank = Code_cache.L15.create ~capacity in
      let m = { slots = []; m_tick = 0 } in
      let used () = List.fold_left (fun acc (_, sz, _, _) -> acc + sz) 0 m.slots in
      let drop a = m.slots <- List.filter (fun (a', _, _, _) -> a' <> a) m.slots in
      let step op =
        (match op with
         | L15_install (a, n, sum) ->
           let block = dummy_block ~addr:a ~host_insns:n () in
           Code_cache.L15.install ?sum bank block;
           let size = Block.size_bytes block in
           if size <= capacity then begin
             drop a;
             while used () + size > capacity && m.slots <> [] do
               let oldest =
                 List.fold_left
                   (fun best ((_, _, _, u) as s) ->
                     match best with
                     | Some (_, _, _, bu) when bu <= u -> best
                     | _ -> Some s)
                   None m.slots
               in
               match oldest with
               | Some (victim, _, _, _) -> drop victim
               | None -> ()
             done;
             m.m_tick <- m.m_tick + 1;
             let stored = Option.value ~default:block.checksum sum in
             m.slots <- (a, size, stored, m.m_tick) :: m.slots
           end;
           true
         | L15_find a ->
           m.m_tick <- m.m_tick + 1;
           let model =
             match List.find_opt (fun (a', _, _, _) -> a' = a) m.slots with
             | Some (_, size, sum, _) ->
               m.slots <-
                 List.map
                   (fun ((a', sz, sm, _) as s) ->
                     if a' = a then (a', sz, sm, m.m_tick) else s)
                   m.slots;
               Some (a, size, sum)
             | None -> None
           in
           let actual =
             Code_cache.L15.find bank a
             |> Option.map (fun ((b : Block.t), sum) ->
                    (b.guest_addr, Block.size_bytes b, sum))
           in
           actual = model
         | L15_remove a ->
           Code_cache.L15.remove bank a;
           drop a;
           true
         | L15_drop_page p ->
           Code_cache.L15.drop_page bank p;
           m.slots <- List.filter (fun (a, _, _, _) -> a / 4096 <> p) m.slots;
           true)
        && Code_cache.L15.used_bytes bank = used ()
      in
      List.for_all step ops)

(* --- Op words on the block ------------------------------------------- *)

(* [Block.make] compiles the code for the engine, which indexes its
   32-entry register file unchecked and writes it without an r0 guard:
   a register above r31, a load into r0 and a byte-signed store never
   make a block. *)
let test_make_refuses () =
  let make code =
    Block.make ~guest_addr:0x1000 ~guest_len:4 ~guest_insns:1 ~code
      ~term:(Block.T_jmp { target = 0x2000 }) ~optimized:true
      ~translation_cycles:1 ~page_lo:1 ~page_hi:1
  in
  let refused insn =
    match make [| Hinsn.Nop; insn |] with
    | _ -> Alcotest.failf "made a block with %s" (Hinsn.to_string insn)
    | exception Invalid_argument _ -> ()
  in
  refused (Load (W32, 0, 2, 0));
  refused (Load (W8s, 0, 2, 4));
  refused (Alu3 (Add, 32, 1, 2));
  refused (Load (W32, 1, 61, 0));
  refused (Store (W8s, 1, 2, 0));
  let b = make [| Load (W32, 1, 2, 8); Store (W8, 0, 2, 0) |] in
  Alcotest.(check (list int)) "one word per instruction"
    (List.map Hexec.encode [ Load (W32, 1, 2, 8); Store (W8, 0, 2, 0) ])
    (Array.to_list b.ops)

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

(* Random sequences of every operation that moves an address in or out
   of [Queued], against a model that keeps only each address's status.
   [pop] must hand out an address the model holds as queued (or [None]
   when it holds none), and after every step [queue_length] must equal
   the model's count of queued addresses. *)
type spec_op =
  | Sp_seed of int
  | Sp_demand of int
  | Sp_translated of int * Block.term
  | Sp_pop
  | Sp_mark_done of int
  | Sp_forget of int
  | Sp_forget_done of int

let spec_addr k = 0x4000 + (k * 0x10)

let spec_op_gen =
  let open QCheck.Gen in
  let addr = map spec_addr (int_range 0 9) in
  let term =
    oneof
      [ map (fun target -> Block.T_jmp { target }) addr;
        map2 (fun taken fall -> Block.T_jcc { taken; fall }) addr addr;
        map2 (fun target ret -> Block.T_call { target; ret }) addr addr;
        map (fun ret -> Block.T_jind { kind = Block.K_call ret }) addr;
        map (fun next -> Block.T_syscall { next }) addr;
        oneofl
          [ Block.T_jind { kind = Block.K_jump };
            Block.T_jind { kind = Block.K_ret };
            Block.T_fault "x" ] ]
  in
  frequency
    [ (1, map (fun a -> Sp_seed a) addr);
      (2, map (fun a -> Sp_demand a) addr);
      (3, map2 (fun a tm -> Sp_translated (a, tm)) addr term);
      (4, return Sp_pop);
      (2, map (fun a -> Sp_mark_done a) addr);
      (1, map (fun a -> Sp_forget a) addr);
      (1, map (fun a -> Sp_forget_done a) addr) ]

let spec_op_print = function
  | Sp_seed a -> Printf.sprintf "seed 0x%x" a
  | Sp_demand a -> Printf.sprintf "request_demand 0x%x" a
  | Sp_translated (a, tm) ->
    let succ =
      match tm with
      | T_jmp { target } -> Printf.sprintf "jmp 0x%x" target
      | T_jcc { taken; fall } -> Printf.sprintf "jcc 0x%x/0x%x" taken fall
      | T_call { target; ret } -> Printf.sprintf "call 0x%x ret 0x%x" target ret
      | T_jind { kind = K_call ret } -> Printf.sprintf "callind ret 0x%x" ret
      | T_syscall { next } -> Printf.sprintf "syscall next 0x%x" next
      | T_jind { kind = K_jump | K_ret } -> "jind"
      | T_fault _ -> "fault"
    in
    Printf.sprintf "note_block_translated 0x%x (%s)" a succ
  | Sp_pop -> "pop"
  | Sp_mark_done a -> Printf.sprintf "mark_done 0x%x" a
  | Sp_forget a -> Printf.sprintf "forget 0x%x" a
  | Sp_forget_done a -> Printf.sprintf "forget_done 0x%x" a

(* Under [Config.default]: speculation and the return predictor on. *)
let predicted_successors : Block.term -> int list = function
  | T_jmp { target } -> [ target ]
  | T_jcc { taken; fall } -> [ taken; fall ]
  | T_call { target; ret } -> [ target; ret ]
  | T_jind { kind = K_call ret } -> [ ret ]
  | T_syscall { next } -> [ next ]
  | T_jind { kind = K_jump | K_ret } | T_fault _ -> []

let prop_spec_queue_length =
  QCheck.Test.make ~name:"spec: queue_length = queued addresses in a model"
    ~count:500
    QCheck.(
      make
        ~print:(Print.list spec_op_print)
        Gen.(list_size (int_range 1 150) spec_op_gen))
    (fun ops ->
      let s = mk_spec () in
      let model : (int, [ `Queued | `In_flight | `Done ]) Hashtbl.t =
        Hashtbl.create 16
      in
      let enqueue a = if not (Hashtbl.mem model a) then Hashtbl.replace model a `Queued in
      let queued () =
        Hashtbl.fold (fun _ st n -> if st = `Queued then n + 1 else n) model 0
      in
      let step op =
        (match op with
         | Sp_seed a -> Spec.seed s a; enqueue a; true
         | Sp_demand a -> Spec.request_demand s a; enqueue a; true
         | Sp_translated (a, term) ->
           Spec.note_block_translated s (dummy_block ~addr:a ~term ());
           List.iter enqueue (predicted_successors term);
           true
         | Sp_pop -> (
           match Spec.pop s with
           | Some a when Hashtbl.find_opt model a = Some `Queued ->
             Hashtbl.replace model a `In_flight;
             true
           | Some _ -> false
           | None -> queued () = 0)
         | Sp_mark_done a -> Spec.mark_done s a; Hashtbl.replace model a `Done; true
         | Sp_forget a -> Spec.forget s a; Hashtbl.remove model a; true
         | Sp_forget_done a ->
           Spec.forget_done s a;
           if Hashtbl.find_opt model a = Some `Done then Hashtbl.remove model a;
           true)
        && Spec.queue_length s = queued ()
      in
      List.for_all step ops)

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
    Alcotest.test_case "analysis: CPI monotone" `Quick test_cpi_monotone;
    Alcotest.test_case "block: make refuses what the engine cannot run"
      `Quick test_make_refuses ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_l15_recency; prop_spec_queue_length ]
