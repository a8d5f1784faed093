(* H-ISA tests: the fields an op word can encode, execution semantics,
   and the macro-instructions' trap behaviour. *)

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

(* Registers seeded for the oracle: r0 zero, the rest 32-bit values
   leaning on small ones (so Div64 sometimes divides) and on sign bits. *)
let seeded_regs =
  QCheck.Gen.(
    map
      (fun l -> Array.of_list (0 :: l))
      (list_repeat 31
         (frequency
            [ (2, int_range 0 16);
              (1, oneofl [ 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF ]);
              (4, map (fun v -> v land 0xFFFFFFFF) int) ])))

let prop_op_word_oracle =
  QCheck.Test.make
    ~name:"op word = oracle: outcome, registers, stores, sources, defs"
    ~count:5000
    (QCheck.make
       ~print:(fun (insn, _) -> Hinsn.to_string insn)
       (QCheck.Gen.pair G.insn seeded_regs))
    (fun (insn, regs) ->
      match Host_oracle.mismatch ~regs insn (Hexec.encode insn) with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* [Host_oracle.decode] inverts [Hexec.encode]: an encode that gave two
   instructions one word would decode one of them as the other. A unary
   branch's second source is the one field no word keeps. *)
let prop_decode_inverts_encode =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:5000
    (QCheck.make ~print:Hinsn.to_string G.insn)
    (fun insn ->
      let expect : Hinsn.t =
        match insn with
        | Branch (((Blez | Bgtz | Bltz | Bgez) as c), rs, _, tgt) ->
          Branch (c, rs, 0, tgt)
        | insn -> insn
      in
      let got = Host_oracle.decode (Hexec.encode insn) in
      got = expect
      || QCheck.Test.fail_reportf "decodes as %s" (Hinsn.to_string got))

(* [Hexec.run_straight] against a per-word model of the timed engine's
   rules, written here with the field accessors: a word waits while a
   source other than r0 is pending; otherwise time rises to the latest
   [ready_at] of its three source fields (the rise summed as stall), and
   an ALU word then takes a cycle and stamps [ready_at.(rd)], a branch
   takes a cycle, and any other word stops the run. Blocks use registers
   r0-r7, so sources collide with pending registers and recent writes,
   and branch forward only, as translated code does. *)
type straight_case = {
  code : Hinsn.t array;
  s_regs : int array;
  s_ready : int array;
  s_pending : int;
  s_pc : int;
  s_time : int;
  s_stall : int;
}

let gen_straight =
  let open QCheck.Gen in
  let reg = int_range 0 7 in
  let straight = G.insn_over reg in
  let* n = int_range 0 24 in
  let* code =
    array_repeat n
      (frequency [ (6, straight); (1, G.insn_over reg) ])
  in
  (* Branch and jump targets: forward, at most two past the end. *)
  let* offs = array_repeat n (int_range 1 6) in
  let code =
    Array.mapi
      (fun i (insn : Hinsn.t) ->
        let tgt = min (i + offs.(i)) (n + 2) in
        match insn with
        | Branch (c, rs, rt, _) -> Hinsn.Branch (c, rs, rt, tgt)
        | Jump _ -> Hinsn.Jump tgt
        | insn -> insn)
      code
  in
  let* s_regs = seeded_regs in
  let* ready = array_repeat 31 (int_range 0 40) in
  (* r0 may be marked too: it never waits all the same. *)
  let* pend = array_repeat 8 (frequencyl [ (7, false); (1, true) ]) in
  let* s_pc = int_range 0 (max 0 (n - 1)) in
  let* s_time = int_range 0 30 in
  let* s_stall = int_range 0 5 in
  let s_pending =
    Array.fold_left ( lor ) 0
      (Array.mapi (fun i p -> if p then 1 lsl i else 0) pend)
  in
  return
    { code; s_regs; s_ready = Array.append [| 0 |] ready; s_pending;
      s_pc; s_time; s_stall }

let straight_model ops regs ready_at pending pc time stall =
  let n = Array.length ops in
  let rec go pc time stall =
    if pc >= n then (Hexec.Ended, pc, time, stall)
    else begin
      let w = ops.(pc) in
      let srcs = [ Hexec.rs w; Hexec.rt w; Hexec.ru w ] in
      if List.exists (fun r -> r <> 0 && pending land (1 lsl r) <> 0) srcs
      then (Hexec.Pending, pc, time, stall)
      else begin
        let ready = List.fold_left (fun m r -> max m ready_at.(r)) 0 srcs in
        let stall = if ready > time then stall + (ready - time) else stall in
        let time = max time ready in
        let a = regs.(Hexec.rs w) and b = regs.(Hexec.rt w) in
        match Hexec.kind w with
        | Alu ->
          let rd = Hexec.rd w in
          if rd <> 0 then begin
            regs.(rd) <- Hexec.eval w a b;
            ready_at.(rd) <- time + 1
          end;
          go (pc + 1) (time + 1) stall
        | Branch ->
          go (if Hexec.eval w a b <> 0 then Hexec.imm w else pc + 1)
            (time + 1) stall
        | Trap | Mul64 | Div64 | Load _ | Store _ ->
          (Hexec.Other, pc, time, stall)
      end
    end
  in
  go pc time stall

let stop_name : Hexec.stop -> string = function
  | Ended -> "ended"
  | Pending -> "pending"
  | Other -> "other"

let prop_straight_loop =
  QCheck.Test.make ~name:"straight-line loop = per-word engine model"
    ~count:3000
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "pc %d time %d pending 0x%x\n%s" c.s_pc c.s_time
           c.s_pending
           (String.concat "\n"
              (Array.to_list (Array.map Hinsn.to_string c.code))))
       gen_straight)
    (fun c ->
      let ops = Array.map Hexec.encode c.code in
      let regs = Array.copy c.s_regs and ready = Array.copy c.s_ready in
      let cur = { Hexec.pc = c.s_pc; time = c.s_time; stall = c.s_stall } in
      let stop = Hexec.run_straight cur ops regs ready c.s_pending in
      let m_regs = Array.copy c.s_regs and m_ready = Array.copy c.s_ready in
      let m_stop, m_pc, m_time, m_stall =
        straight_model ops m_regs m_ready c.s_pending c.s_pc c.s_time
          c.s_stall
      in
      let differ what = QCheck.Test.fail_reportf "%s differ" what in
      if stop <> m_stop then
        QCheck.Test.fail_reportf "stop: %s, model %s" (stop_name stop)
          (stop_name m_stop)
      else if cur.pc <> m_pc then differ "stop pcs"
      else if cur.time <> m_time then differ "times"
      else if cur.stall <> m_stall then differ "stall sums"
      else if regs <> m_regs then differ "registers"
      else if ready <> m_ready then differ "ready_at vectors"
      else true)

let test_encode_refuses () =
  let refused insn =
    match Hexec.encode insn with
    | _ -> Alcotest.failf "encoded %s" (Hinsn.to_string insn)
    | exception Invalid_argument _ -> ()
  in
  refused (Alu3 (Add, 32, 1, 2));
  refused (Alu3 (Add, 1, 61, 2));
  refused (Div64 { divisor = 40; signed = true });
  refused (Store (W8s, 1, 2, 0));
  refused (Alui (Addi, 1, 2, 1 lsl 40));
  refused (Load (W32, 1, 2, -(1 lsl 40)));
  refused (Ext (1, 2, 64, 8));
  (* The widest offsets that fit survive the trip through the word. *)
  List.iter
    (fun off ->
      Alcotest.(check int) "offset" off
        (Hexec.imm (Hexec.encode (Load (W32, 1, 2, off)))))
    [ 32767; -32768 ]

(* Each field of the 32-bit instruction word: encode accepts the edge
   values [G.insn] draws up to and refuses one past each. *)
let test_field_edges () =
  let reg = (0, 31) and s16 = (-32768, 32767) and u16 = (0, 0xFFFF) in
  let u5 = reg in
  let cases : (string * (int * int) * (int -> Hinsn.t)) list =
    [ ("rd", reg, fun r -> Alu3 (Add, r, 1, 2));
      ("rs", reg, fun r -> Alu3 (Add, 1, r, 2));
      ("rt", reg, fun r -> Alu3 (Add, 1, 2, r));
      ("store value", reg, fun r -> Store (W32, r, 1, 0));
      ("mul64 source", reg, fun r -> Mul64 r);
      ("divisor", reg, fun r -> Div64 { divisor = r; signed = true });
      ("trap source", reg, fun r -> Trap (Divide_error, r));
      ("addi immediate", s16, fun v -> Alui (Addi, 1, 2, v));
      ("slti immediate", s16, fun v -> Alui (Slti, 1, 2, v));
      ("andi immediate", u16, fun v -> Alui (Andi, 1, 2, v));
      ("ori immediate", u16, fun v -> Alui (Ori, 1, 2, v));
      ("xori immediate", u16, fun v -> Alui (Xori, 1, 2, v));
      ("sltiu immediate", u16, fun v -> Alui (Sltiu, 1, 2, v));
      ("lui immediate", u16, fun v -> Lui (1, v));
      ("load offset", s16, fun v -> Load (W8s, 1, 2, v));
      ("store offset", s16, fun v -> Store (W8, 1, 2, v));
      ("beq target", u16, fun v -> Branch (Beq, 1, 2, v));
      ("bltz target", u16, fun v -> Branch (Bltz, 1, 0, v));
      ("jump target", u16, fun v -> Jump v);
      ("shift amount", u5, fun v -> Shifti (Sra, 1, 2, v));
      ("ext position", u5, fun v -> Ext (1, 2, v, 1));
      ("ext size", u5, fun v -> Ext (1, 2, 0, v));
      ("ins position", u5, fun v -> Ins (1, 2, v, 1));
      ("ins size", u5, fun v -> Ins (1, 2, 0, v)) ]
  in
  List.iter
    (fun (what, (lo, hi), mk) ->
      List.iter
        (fun v ->
          match Hexec.encode (mk v) with
          | _ -> ()
          | exception Invalid_argument m ->
            Alcotest.failf "%s %d refused: %s" what v m)
        [ lo; hi ];
      List.iter
        (fun v ->
          match Hexec.encode (mk v) with
          | _ -> Alcotest.failf "%s %d encoded" what v
          | exception Invalid_argument _ -> ())
        [ lo - 1; hi + 1 ])
    cases

let prop_vreg_rejected =
  QCheck.Test.make ~name:"virtual registers cannot be encoded" ~count:200
    QCheck.(int_range 32 100)
    (fun v ->
      match Hexec.encode (Hinsn.Alu3 (Add, v, 0, 0)) with
      | _ -> false
      | exception Invalid_argument _ -> true)

let no_mem : Hexec.mem_access =
  { load = (fun _ _ -> Alcotest.fail "unexpected load");
    store = (fun _ _ _ -> Alcotest.fail "unexpected store") }

let run1 insn regs = Hexec.run_block ~code:[| insn |] ~regs ~mem:no_mem ~fuel:2

let exec1 insn regs =
  match run1 insn regs with
  | Hexec.Fell_through -> ()
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
  exec1 (Div64 { divisor = 1; signed = false }) regs;
  Alcotest.(check int) "quotient" 3 regs.(eax);
  Alcotest.(check int) "remainder" 1 regs.(edx);
  regs.(1) <- 0;
  (match run1 (Div64 { divisor = 1; signed = false }) regs with
   | Hexec.Trap Hinsn.Divide_error -> ()
   | _ -> Alcotest.fail "expected divide-error trap");
  (* Overflow: quotient does not fit 32 bits. *)
  regs.(eax) <- 0;
  regs.(edx) <- 5;
  regs.(1) <- 2;
  match run1 (Div64 { divisor = 1; signed = false }) regs with
  | Hexec.Trap Hinsn.Divide_overflow -> ()
  | _ -> Alcotest.fail "expected divide-overflow trap"

let prop_shift_masks_count =
  QCheck.Test.make ~name:"variable shifts mask the count" ~count:500
    QCheck.(triple (oneofl [ Hinsn.Sll; Srl; Sra ]) (int_bound 0xFFFF) (int_bound 255))
    (fun (op, v, count) ->
      Hexec.eval_shift op v count = Hexec.eval_shift op v (count land 31))

(* Every used opcode's number is its place in [opcodes]; the padding
   [Nop]s map back to the first [Nop]. *)
let test_opcode_numbers () =
  let ops = Hexec.opcodes in
  let first op =
    let rec go j = if ops.(j) = op then j else go (j + 1) in
    go 0
  in
  let used = ref 0 in
  Array.iteri
    (fun i op ->
      if first op = i then incr used;
      Alcotest.(check int) (Printf.sprintf "number opcodes.(%d)" i) (first op)
        (Hexec.number op))
    ops;
  Alcotest.(check int) "used opcodes" 44 !used

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
    Alcotest.test_case "block runner" `Quick test_run_block;
    Alcotest.test_case "op words: opcode numbers" `Quick test_opcode_numbers;
    Alcotest.test_case "op words: what encode refuses" `Quick
      test_encode_refuses;
    Alcotest.test_case "op words: every field's edges" `Quick
      test_field_edges ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_vreg_rejected; prop_shift_masks_count;
        prop_op_word_oracle; prop_decode_inverts_encode; prop_straight_loop ]
