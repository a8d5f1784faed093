(* Unit tests for the translator's block construction: terminator shapes,
   decode-fault handling, superblock formation, and translation-cost
   accounting. *)

open Vat_guest
open Vat_core
open Asm.Dsl

let block_at ?(cfg = Config.default) items name =
  let prog = Program.of_asm items in
  Translate.translate cfg
    ~fetch:(Mem.read_u8 prog.Program.mem)
    ~guest_addr:(Program.symbol prog name)

let test_terminator_shapes () =
  let items =
    [ label "start";
      mov (r eax) (i 1);
      jmp "a";
      label "a";
      cmp (r eax) (i 0);
      jne "b";
      nop;
      label "b";
      call "f";
      label "after_call";
      jmpi (r eax);
      label "f";
      ret;
      label "sys";
      int_ 0x80;
      label "bad";
      hlt ]
  in
  (match (block_at items "start").term with
   | Block.T_jmp { target } ->
     Alcotest.(check bool) "jmp forward" true (target > 0)
   | _ -> Alcotest.fail "expected T_jmp");
  (match (block_at items "a").term with
   | Block.T_jcc { taken; fall } ->
     Alcotest.(check bool) "distinct arms" true (taken <> fall)
   | _ -> Alcotest.fail "expected T_jcc");
  (match (block_at items "b").term with
   | Block.T_call { target; ret } ->
     Alcotest.(check bool) "call arms" true (target <> ret)
   | _ -> Alcotest.fail "expected T_call");
  (match (block_at items "after_call").term with
   | Block.T_jind { kind = Block.K_jump } -> ()
   | _ -> Alcotest.fail "expected T_jind");
  (match (block_at items "f").term with
   | Block.T_jind { kind = Block.K_ret } -> ()
   | _ -> Alcotest.fail "expected ret");
  (match (block_at items "sys").term with
   | Block.T_syscall _ -> ()
   | _ -> Alcotest.fail "expected syscall");
  match (block_at items "bad").term with
  | Block.T_fault _ -> ()
  | _ -> Alcotest.fail "expected fault for hlt"

let test_decode_fault_block () =
  (* Garbage at the entry: the block must carry a T_fault terminator. *)
  let items = [ label "start"; Asm.Byte 0xFF; Asm.Byte 0xFF ] in
  let b = block_at items "start" in
  Alcotest.(check int) "no code" 0 (Array.length b.code);
  Alcotest.(check int) "an empty ops array" 0 (Array.length b.ops);
  match b.term with
  | Block.T_fault _ -> ()
  | _ -> Alcotest.fail "expected decode-fault block"

let test_block_stops_before_bad_insn () =
  (* Valid instructions followed by garbage: the block covers the valid
     prefix and jumps to the bad address (whose own block faults). *)
  let items =
    [ label "start"; mov (r eax) (i 1); add (r eax) (i 2); Asm.Byte 0xFF ]
  in
  let b = block_at items "start" in
  Alcotest.(check int) "two guest insns" 2 b.guest_insns;
  match b.term with
  | Block.T_jmp { target } ->
    (match (block_at items "start").guest_addr + b.guest_len with
     | a -> Alcotest.(check int) "falls to bad byte" a target)
  | _ -> Alcotest.fail "expected fall-through jmp"

let test_superblock_merges () =
  let items =
    [ label "start";
      mov (r eax) (i 1);
      jmp "mid";
      label "mid";
      add (r eax) (i 2);
      jmp "tail";
      label "tail";
      add (r eax) (i 3);
      ret ]
  in
  let plain = block_at items "start" in
  let merged =
    block_at ~cfg:{ Config.default with superblocks = true } items "start"
  in
  Alcotest.(check int) "plain block: one guest insn + jmp" 2 plain.guest_insns;
  (* The superblock swallows both jumps: mov, add, add, ret = 4. *)
  Alcotest.(check int) "superblock spans the chain" 4 merged.guest_insns;
  match merged.term with
  | Block.T_jind { kind = Block.K_ret } -> ()
  | _ -> Alcotest.fail "superblock should end at the ret"

let test_superblock_stops_backward () =
  let items =
    [ label "start"; add (r eax) (i 1); jmp "start" ]
  in
  let b = block_at ~cfg:{ Config.default with superblocks = true } items "start" in
  (* A backward jump is a loop edge: never merged. *)
  match b.term with
  | Block.T_jmp { target } ->
    Alcotest.(check int) "loops back" b.guest_addr target
  | _ -> Alcotest.fail "expected loop-edge jmp"

let test_translation_cost_model () =
  let items =
    [ label "start";
      add (r eax) (i 1); add (r eax) (i 2); add (r eax) (i 3); ret ]
  in
  let opt = block_at items "start" in
  let unopt =
    block_at ~cfg:{ Config.default with optimize = false } items "start"
  in
  if opt.translation_cycles <= unopt.translation_cycles then
    Alcotest.failf "optimization should cost slave cycles (%d vs %d)"
      opt.translation_cycles unopt.translation_cycles;
  if Array.length opt.code >= Array.length unopt.code then
    Alcotest.failf "optimization should shrink code (%d vs %d)"
      (Array.length opt.code)
      (Array.length unopt.code)

let test_code_is_hardware_only () =
  let rng = Vat_desim.Rng.create ~seed:99 in
  let prog = Randprog.generate_program rng Randprog.default_params in
  let b =
    Translate.translate Config.default
      ~fetch:(Mem.read_u8 prog.Program.mem)
      ~guest_addr:prog.Program.entry
  in
  Array.iter
    (fun insn ->
      (* Encoding raises if any register is still virtual. *)
      ignore (Vat_host.Hencode.encode insn))
    b.code

let suite =
  [ Alcotest.test_case "terminator shapes" `Quick test_terminator_shapes;
    Alcotest.test_case "decode-fault block" `Quick test_decode_fault_block;
    Alcotest.test_case "stops before bad instruction" `Quick
      test_block_stops_before_bad_insn;
    Alcotest.test_case "superblock merges jump chains" `Quick
      test_superblock_merges;
    Alcotest.test_case "superblock stops at loop edges" `Quick
      test_superblock_stops_backward;
    Alcotest.test_case "translation cost model" `Quick test_translation_cost_model;
    Alcotest.test_case "generated code encodes (hardware regs)" `Quick
      test_code_is_hardware_only ]
