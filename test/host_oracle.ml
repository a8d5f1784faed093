(* The oracle for the op words of [Hexec]: H-ISA semantics written
   directly over [Hinsn.t], one match per instruction, independent of the
   op-word evaluator the library runs. [mismatch] runs one word the way
   the execution engine does, through [Hexec]'s fields and evaluators,
   and compares it with this oracle. *)

open Vat_host

type outcome =
  | Next
  | Goto of int
  | Trapped of Hinsn.trap

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let eval_alu3 (op : Hinsn.alu3) a b =
  match op with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Nor -> mask32 (lnot (a lor b))
  | Slt -> if sign32 a < sign32 b then 1 else 0
  | Sltu -> if a < b then 1 else 0
  | Mul -> mask32 (a * b)
  | Mulh ->
    Int64.to_int
      (Int64.logand
         (Int64.shift_right
            (Int64.mul (Int64.of_int (sign32 a)) (Int64.of_int (sign32 b)))
            32)
         0xFFFFFFFFL)
  | Mulhu ->
    Int64.to_int
      (Int64.shift_right_logical (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)

let eval_alui (op : Hinsn.alui) a imm =
  match op with
  | Addi -> mask32 (a + imm)
  | Andi -> a land (imm land 0xFFFF)
  | Ori -> a lor (imm land 0xFFFF)
  | Xori -> a lxor (imm land 0xFFFF)
  | Slti -> if sign32 a < imm then 1 else 0
  | Sltiu -> if a < mask32 imm then 1 else 0

let eval_shift (op : Hinsn.shift) v count =
  let count = count land 31 in
  match op with
  | Sll -> mask32 (v lsl count)
  | Srl -> mask32 v lsr count
  | Sra -> mask32 (sign32 v asr count)

let eval_branch (c : Hinsn.brcond) a b =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blez -> sign32 a <= 0
  | Bgtz -> sign32 a > 0
  | Bltz -> sign32 a < 0
  | Bgez -> sign32 a >= 0

let mask size = (1 lsl size) - 1
let eval_ext v pos size = (v lsr pos) land mask size

let eval_ins old v pos size =
  old land lnot (mask size lsl pos) lor ((v land mask size) lsl pos)
  |> mask32

let guest_eax = Hinsn.guest_reg_base
let guest_edx = Hinsn.guest_reg_base + 2
let get regs r = if r = 0 then 0 else regs.(r)
let set regs r v = if r <> 0 then regs.(r) <- mask32 v

let step ~regs ~(mem : Hexec.mem_access) (insn : Hinsn.t) =
  match insn with
  | Nop -> Next
  | Alu3 (op, rd, rs, rt) ->
    set regs rd (eval_alu3 op (get regs rs) (get regs rt));
    Next
  | Alui (op, rd, rs, imm) ->
    set regs rd (eval_alui op (get regs rs) imm);
    Next
  | Lui (rd, imm) ->
    set regs rd ((imm land 0xFFFF) lsl 16);
    Next
  | Shifti (op, rd, rs, n) ->
    set regs rd (eval_shift op (get regs rs) n);
    Next
  | Shiftv (op, rd, rs, rc) ->
    set regs rd (eval_shift op (get regs rs) (get regs rc));
    Next
  | Ext (rd, rs, pos, size) ->
    set regs rd (eval_ext (get regs rs) pos size);
    Next
  | Ins (rd, rs, pos, size) ->
    set regs rd (eval_ins (get regs rd) (get regs rs) pos size);
    Next
  | Load (w, rd, base, off) ->
    set regs rd (mem.load w (mask32 (get regs base + off)));
    Next
  | Store (w, rv, base, off) ->
    let v =
      match w with
      | W8 -> get regs rv land 0xFF
      | W32 -> get regs rv
      | W8s -> invalid_arg "Host_oracle.step: store width W8s"
    in
    mem.store w (mask32 (get regs base + off)) v;
    Next
  | Branch (c, rs, rt, tgt) ->
    if eval_branch c (get regs rs) (get regs rt) then Goto tgt else Next
  | Jump tgt -> Goto tgt
  | Mul64 rs ->
    let wide =
      Int64.mul (Int64.of_int (get regs guest_eax)) (Int64.of_int (get regs rs))
    in
    set regs guest_eax (Int64.to_int (Int64.logand wide 0xFFFFFFFFL));
    set regs guest_edx (Int64.to_int (Int64.shift_right_logical wide 32));
    Next
  | Div64 { divisor; signed } ->
    let d32 = get regs divisor in
    if d32 = 0 then Trapped Divide_error
    else begin
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int (get regs guest_edx)) 32)
          (Int64.of_int (get regs guest_eax))
      in
      if signed then begin
        let d = Int64.of_int (sign32 d32) in
        let q = Int64.div dividend d and rem = Int64.rem dividend d in
        if q > 0x7FFFFFFFL || q < -0x80000000L then Trapped Divide_overflow
        else begin
          set regs guest_eax (Int64.to_int (Int64.logand q 0xFFFFFFFFL));
          set regs guest_edx (Int64.to_int (Int64.logand rem 0xFFFFFFFFL));
          Next
        end
      end
      else begin
        let d = Int64.of_int d32 in
        let q = Int64.unsigned_div dividend d in
        let rem = Int64.unsigned_rem dividend d in
        if Int64.unsigned_compare q 0xFFFFFFFFL > 0 then Trapped Divide_overflow
        else begin
          set regs guest_eax (Int64.to_int (Int64.logand q 0xFFFFFFFFL));
          set regs guest_edx (Int64.to_int (Int64.logand rem 0xFFFFFFFFL));
          Next
        end
      end
    end
  | Trap (t, r) -> if get regs r <> 0 then Trapped t else Next

(* One word, run as the engine runs it: sources read straight from the
   register file (r0 reads its own cell, which stays 0), the kind from
   [Hexec.kinds], the value or condition from [Hexec.eval], and results
   written unmasked. *)
let run_word ~regs ~(mem : Hexec.mem_access) w =
  let set regs r v = if r <> 0 then regs.(r) <- v in
  let a = regs.(Hexec.rs w) and b = regs.(Hexec.rt w) in
  match Hexec.kind w with
  | Alu ->
    set regs (Hexec.rd w) (Hexec.eval w a b);
    Next
  | Branch -> if Hexec.eval w a b <> 0 then Goto (Hexec.imm w) else Next
  | Trap -> if Hexec.eval w a b <> 0 then Trapped (Hexec.trap w) else Next
  | Mul64 | Div64 -> (
    match Hexec.wide regs w with None -> Next | Some t -> Trapped t)
  | Load width ->
    set regs (Hexec.rd w) (mem.load width (mask32 (a + Hexec.imm w)));
    Next
  | Store width ->
    mem.store width
      (mask32 (b + Hexec.imm w))
      (if width = W8 then a land 0xFF else a);
    Next

(* Loads see a fixed function of width and address; stores are logged. *)
let recording_mem () =
  let log = ref [] in
  let mem : Hexec.mem_access =
    { load =
        (fun w addr ->
          let v = Hashtbl.hash addr in
          match w with
          | W32 -> v land 0xFFFFFFFF
          | W8 -> v land 0xFF
          | W8s -> if v land 0x80 <> 0 then v land 0xFF lor 0xFFFFFF00 else v land 0xFF);
      store = (fun w addr v -> log := (w, addr, v) :: !log) }
  in
  (mem, log)

let pad3 = function
  | [] -> [ 0; 0; 0 ]
  | [ a ] -> [ a; 0; 0 ]
  | [ a; b ] -> [ a; b; 0 ]
  | l -> l

let word_defs w =
  (match Hexec.kind w with
   | Mul64 | Div64 -> [ guest_eax; guest_edx ]
   | _ -> [])
  @ if Hexec.rd w <> 0 then [ Hexec.rd w ] else []

let show_outcome = function
  | Next -> "next"
  | Goto t -> Printf.sprintf "goto %d" t
  | Trapped Divide_error -> "divide error"
  | Trapped Divide_overflow -> "divide overflow"

(* [None] if word [w] names exactly [insn]'s sources ({!Hinsn.uses} in
   order, padded with r0) and its non-r0 {!Hinsn.defs}, and, run from a
   copy of [regs] (whose r0 must be 0), leaves the same outcome, register
   file and stores as the oracle; else what differs. *)
let mismatch ~regs insn w =
  let expect_regs = Array.copy regs and got_regs = Array.copy regs in
  let mem1, log1 = recording_mem () and mem2, log2 = recording_mem () in
  let expect = step ~regs:expect_regs ~mem:mem1 insn in
  let got = run_word ~regs:got_regs ~mem:mem2 w in
  let sources = [ Hexec.rs w; Hexec.rt w; Hexec.ru w ] in
  if sources <> pad3 (Hinsn.uses insn) then Some "source fields <> uses"
  else if word_defs w <> List.filter (( <> ) 0) (Hinsn.defs insn) then
    Some "def fields <> defs"
  else if got <> expect then
    Some
      (Printf.sprintf "outcome %s, oracle %s" (show_outcome got)
         (show_outcome expect))
  else if got_regs <> expect_regs then Some "register file differs"
  else if !log1 <> !log2 then Some "stores differ"
  else None
