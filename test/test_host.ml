(* H-ISA tests: encoding round trips, execution semantics, and the
   macro-instructions' trap behaviour. *)

open Vat_host

module G = struct
  open QCheck.Gen

  let reg = int_range 0 31
  let imm_s16 = int_range (-32768) 32767
  let imm_u16 = int_range 0 0xFFFF
  let shamt = int_range 0 31
  let field = int_range 0 31

  let insn_over reg : Hinsn.t t =
    let open Hinsn in
    frequency
      [ (4,
         map2
           (fun (op, rd) (rs, rt) -> Alu3 (op, rd, rs, rt))
           (pair
              (oneofl [ Add; Sub; And; Or; Xor; Nor; Slt; Sltu; Mul; Mulh; Mulhu ])
              reg)
           (pair reg reg));
        (3,
         let* op = oneofl [ Addi; Slti ] in
         let* rd = reg and* rs = reg and* imm = imm_s16 in
         return (Alui (op, rd, rs, imm)));
        (3,
         let* op = oneofl [ Andi; Ori; Xori; Sltiu ] in
         let* rd = reg and* rs = reg and* imm = imm_u16 in
         return (Alui (op, rd, rs, imm)));
        (1, map2 (fun rd imm -> Lui (rd, imm)) reg imm_u16);
        (2,
         let* op = oneofl [ Sll; Srl; Sra ] in
         let* rd = reg and* rs = reg and* n = shamt in
         return (Shifti (op, rd, rs, n)));
        (1,
         let* op = oneofl [ Sll; Srl; Sra ] in
         let* rd = reg and* rs = reg and* rc = reg in
         return (Shiftv (op, rd, rs, rc)));
        (2,
         let* rd = reg and* rs = reg and* p = field and* s = field in
         return (Ext (rd, rs, p, s)));
        (2,
         let* rd = reg and* rs = reg and* p = field and* s = field in
         return (Ins (rd, rs, p, s)));
        (2,
         let* w = oneofl [ W8; W8s; W32 ] in
         let* rd = reg and* base = reg and* off = imm_s16 in
         return (Load (w, rd, base, off)));
        (2,
         let* w = oneofl [ W8; W32 ] in
         let* rv = reg and* base = reg and* off = imm_s16 in
         return (Store (w, rv, base, off)));
        (2,
         let* c = oneofl [ Beq; Bne; Blez; Bgtz; Bltz; Bgez ] in
         let* rs = reg and* rt = reg and* tgt = imm_u16 in
         return (Branch (c, rs, rt, tgt)));
        (1, map (fun t -> Jump t) imm_u16);
        (1, map (fun r -> Mul64 r) reg);
        (1,
         map2 (fun divisor signed -> Div64 { divisor; signed }) reg bool);
        (1,
         map2
           (fun t r -> Trap ((if t then Divide_error else Divide_overflow), r))
           bool reg);
        (1, return Nop) ]

  let insn = insn_over reg
end

let arb_hinsn = QCheck.make ~print:Hinsn.to_string G.insn

let prop_roundtrip =
  QCheck.Test.make ~name:"host encode/decode round trip" ~count:5000 arb_hinsn
    (fun insn -> Hencode.decode (Hencode.encode insn) = insn)

(* [use_mask]/[def_mask] match on the instruction; the [uses]/[defs]
   lists, which the IR passes keep using, are their oracle: bit [r] per
   listed register, none for r0, and registers 62 and up refused. *)
let prop_masks_match_lists =
  let reg =
    QCheck.Gen.(
      frequency
        [ (2, oneofl Hinsn.[ r0; guest_reg_base; guest_reg_base + 2 ]);
          (6, int_range 0 61);
          (1, int_range 62 70) ])
  in
  let outcome f insn =
    match f insn with m -> Some m | exception Invalid_argument _ -> None
  in
  let bit r =
    if r >= 62 then invalid_arg "unallocated register"
    else if r = 0 then 0
    else 1 lsl r
  in
  let fold regs insn = List.fold_left (fun m r -> m lor bit r) 0 (regs insn) in
  QCheck.Test.make ~name:"use/def masks = fold over uses/defs"
    ~count:5000
    (QCheck.make ~print:Hinsn.to_string (G.insn_over reg))
    (fun insn ->
      outcome Hinsn.use_mask insn = outcome (fold Hinsn.uses) insn
      && outcome Hinsn.def_mask insn = outcome (fold Hinsn.defs) insn)

let prop_vreg_rejected =
  QCheck.Test.make ~name:"virtual registers cannot be encoded" ~count:200
    QCheck.(int_range 32 100)
    (fun v ->
      match Hencode.encode (Hinsn.Alu3 (Add, v, 0, 0)) with
      | _ -> false
      | exception Hencode.Invalid _ -> true)

let no_mem : Hexec.mem_access =
  { load = (fun _ _ -> Alcotest.fail "unexpected load");
    store = (fun _ _ _ -> Alcotest.fail "unexpected store") }

let exec1 insn regs =
  match Hexec.step ~regs ~mem:no_mem insn with
  | Hexec.Next -> ()
  | _ -> Alcotest.fail "unexpected control flow"

let test_ext_ins () =
  let regs = Array.make 32 0 in
  regs.(1) <- 0xABCD1234;
  exec1 (Ext (2, 1, 8, 8)) regs;
  Alcotest.(check int) "ext byte 1" 0x12 regs.(2);
  regs.(3) <- 0xFFFFFFFF;
  regs.(4) <- 0;
  exec1 (Ins (3, 4, 4, 8)) regs;
  Alcotest.(check int) "ins clears field" 0xFFFFF00F regs.(3)

let test_r0_hardwired () =
  let regs = Array.make 32 0 in
  regs.(1) <- 42;
  exec1 (Alu3 (Add, 0, 1, 1)) regs;
  Alcotest.(check int) "r0 ignores writes" 0 regs.(0)

let test_mulh () =
  let regs = Array.make 32 0 in
  regs.(1) <- 0x80000000;
  regs.(2) <- 2;
  exec1 (Alu3 (Mulh, 3, 1, 2)) regs;
  Alcotest.(check int) "signed high" 0xFFFFFFFF regs.(3);
  exec1 (Alu3 (Mulhu, 3, 1, 2)) regs;
  Alcotest.(check int) "unsigned high" 1 regs.(3)

let test_div64 () =
  let regs = Array.make 32 0 in
  let eax = Hinsn.guest_reg_base and edx = Hinsn.guest_reg_base + 2 in
  regs.(eax) <- 10;
  regs.(edx) <- 0;
  regs.(1) <- 3;
  (match Hexec.step ~regs ~mem:no_mem (Div64 { divisor = 1; signed = false }) with
   | Hexec.Next -> ()
   | _ -> Alcotest.fail "div failed");
  Alcotest.(check int) "quotient" 3 regs.(eax);
  Alcotest.(check int) "remainder" 1 regs.(edx);
  regs.(1) <- 0;
  (match Hexec.step ~regs ~mem:no_mem (Div64 { divisor = 1; signed = false }) with
   | Hexec.Trapped Hinsn.Divide_error -> ()
   | _ -> Alcotest.fail "expected divide-error trap");
  (* Overflow: quotient does not fit 32 bits. *)
  regs.(eax) <- 0;
  regs.(edx) <- 5;
  regs.(1) <- 2;
  match Hexec.step ~regs ~mem:no_mem (Div64 { divisor = 1; signed = false }) with
  | Hexec.Trapped Hinsn.Divide_overflow -> ()
  | _ -> Alcotest.fail "expected divide-overflow trap"

let prop_shift_masks_count =
  QCheck.Test.make ~name:"variable shifts mask the count" ~count:500
    QCheck.(triple (oneofl [ Hinsn.Sll; Srl; Sra ]) (int_bound 0xFFFF) (int_bound 255))
    (fun (op, v, count) ->
      Hexec.eval_shift op v count = Hexec.eval_shift op v (count land 31))

let test_run_block () =
  (* Sum 1..5 with a backward... no: forward-only blocks; unrolled. *)
  let code =
    [| Hinsn.Alui (Ori, 1, 0, 5);
       Alui (Ori, 2, 0, 0);
       Alu3 (Add, 2, 2, 1);
       Alui (Addi, 1, 1, -1);
       Branch (Bgtz, 1, 0, 2);
       Nop |]
  in
  (* Note: target index 2 is backward; Hexec.run_block permits it (the
     forward-only rule is the *translator's* invariant), so this also
     checks the raw block runner handles loops. *)
  let regs = Array.make 32 0 in
  match Hexec.run_block ~code ~regs ~mem:no_mem ~fuel:100 with
  | Hexec.Fell_through -> Alcotest.(check int) "sum 5..1" 15 regs.(2)
  | _ -> Alcotest.fail "expected fall through"

let suite =
  [ Alcotest.test_case "ext/ins semantics" `Quick test_ext_ins;
    Alcotest.test_case "r0 hardwired to zero" `Quick test_r0_hardwired;
    Alcotest.test_case "mulh/mulhu" `Quick test_mulh;
    Alcotest.test_case "div64 semantics and traps" `Quick test_div64;
    Alcotest.test_case "block runner" `Quick test_run_block ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_vreg_rejected; prop_shift_masks_count;
        prop_masks_match_lists ]
