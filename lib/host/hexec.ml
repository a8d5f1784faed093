(* Opcodes, numbered by their position in [opcodes]: the only place an
   opcode gets its number. *)
type opcode =
  | Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Mul | Mulh | Mulhu
  | Addi | Andi | Ori | Xori | Slti | Sltiu
  | Lui
  | Sll | Srl | Sra | Sllv | Srlv | Srav
  | Ext | Ins
  | Nop
  | Beq | Bne | Blez | Bgtz | Bltz | Bgez | Jump
  | Trap_de | Trap_ov
  | Mul64 | Div64u | Div64s
  | Lb | Lbs | Lw | Sb | Sw

let opcode_bits = 6
let opcode_mask = (1 lsl opcode_bits) - 1

(* Padded to all 64 opcode values with [Nop], so no opcode field indexes
   out of bounds. *)
let opcodes =
  let used =
    [| Add; Sub; And; Or; Xor; Nor; Slt; Sltu; Mul; Mulh; Mulhu;
       Addi; Andi; Ori; Xori; Slti; Sltiu;
       Lui;
       Sll; Srl; Sra; Sllv; Srlv; Srav;
       Ext; Ins;
       Nop;
       Beq; Bne; Blez; Bgtz; Bltz; Bgez; Jump;
       Trap_de; Trap_ov;
       Mul64; Div64u; Div64s;
       Lb; Lbs; Lw; Sb; Sw |]
  in
  Array.init (opcode_mask + 1) (fun i ->
      if i < Array.length used then used.(i) else Nop)

let rec index_from i (op : opcode) =
  if opcodes.(i) == op then i else index_from (i + 1) op

let number op = index_from 0 op

type kind =
  | Alu
  | Branch
  | Trap
  | Mul64
  | Div64
  | Load of Hinsn.width
  | Store of Hinsn.width

let kind_of : opcode -> kind = function
  | Beq | Bne | Blez | Bgtz | Bltz | Bgez | Jump -> Branch
  | Trap_de | Trap_ov -> Trap
  | Mul64 -> Mul64
  | Div64u | Div64s -> Div64
  | Lb -> Load W8
  | Lbs -> Load W8s
  | Lw -> Load W32
  | Sb -> Store W8
  | Sw -> Store W32
  | Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Mul | Mulh | Mulhu
  | Addi | Andi | Ori | Xori | Slti | Sltiu | Lui | Sll | Srl | Sra
  | Sllv | Srlv | Srav | Ext | Ins | Nop -> Alu

let kinds = Array.map kind_of opcodes

let rd_shift = opcode_bits
let rs_shift = rd_shift + 5
let rt_shift = rs_shift + 5
let ru_shift = rt_shift + 5
let imm_shift = ru_shift + 5
let imm_limit = 1 lsl (Sys.int_size - imm_shift - 1)

let kind w = kinds.(w land opcode_mask)
let rd w = (w lsr rd_shift) land 31
let rs w = (w lsr rs_shift) land 31
let rt w = (w lsr rt_shift) land 31
let ru w = (w lsr ru_shift) land 31
let imm w = w asr imm_shift

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let guest_eax = Hinsn.guest_reg_base
let guest_edx = Hinsn.guest_reg_base + 2

let reg r =
  if r < 0 || r > 31 then
    invalid_arg (Printf.sprintf "Hexec.encode: register %d is not r0–r31" r)
  else r

(* Positional, not optional, fields: an optional argument is boxed at
   every call, and [Block.make] encodes every translated instruction. *)
let word op rd rs rt ru imm =
  if imm < -imm_limit || imm >= imm_limit then
    invalid_arg (Printf.sprintf "Hexec.encode: immediate %d does not fit" imm);
  number op
  lor (reg rd lsl rd_shift)
  lor (reg rs lsl rs_shift)
  lor (reg rt lsl rt_shift)
  lor (reg ru lsl ru_shift)
  lor (imm lsl imm_shift)

let bitfield pos size =
  if pos < 0 || pos > 63 || size < 0 || size > 63 then
    invalid_arg
      (Printf.sprintf "Hexec.encode: bitfield %d,%d out of range" pos size);
  pos lor (size lsl 6)

let alu3_op : Hinsn.alu3 -> opcode = function
  | Add -> Add | Sub -> Sub | And -> And | Or -> Or | Xor -> Xor
  | Nor -> Nor | Slt -> Slt | Sltu -> Sltu | Mul -> Mul | Mulh -> Mulh
  | Mulhu -> Mulhu

let alui_op : Hinsn.alui -> opcode = function
  | Addi -> Addi | Andi -> Andi | Ori -> Ori | Xori -> Xori | Slti -> Slti
  | Sltiu -> Sltiu

let shifti_op : Hinsn.shift -> opcode = function
  | Sll -> Sll | Srl -> Srl | Sra -> Sra

let shiftv_op : Hinsn.shift -> opcode = function
  | Sll -> Sllv | Srl -> Srlv | Sra -> Srav

let branch_op : Hinsn.brcond -> opcode = function
  | Beq -> Beq | Bne -> Bne | Blez -> Blez | Bgtz -> Bgtz | Bltz -> Bltz
  | Bgez -> Bgez

(* [word op rd rs rt ru imm], the sources in [Hinsn.uses] order. *)
let encode (insn : Hinsn.t) =
  match insn with
  | Alu3 (op, rd, rs, rt) -> word (alu3_op op) rd rs rt 0 0
  | Alui (op, rd, rs, imm) -> word (alui_op op) rd rs 0 0 imm
  | Lui (rd, imm) -> word Lui rd 0 0 0 imm
  | Shifti (op, rd, rs, n) -> word (shifti_op op) rd rs 0 0 n
  | Shiftv (op, rd, rs, rc) -> word (shiftv_op op) rd rs rc 0 0
  | Ext (rd, rs, pos, size) -> word Ext rd rs 0 0 (bitfield pos size)
  | Ins (rd, rs, pos, size) -> word Ins rd rd rs 0 (bitfield pos size)
  | Load (w, rd, base, off) ->
    let op = match w with W8 -> Lb | W8s -> Lbs | W32 -> Lw in
    word op rd base 0 0 off
  | Store (W8s, _, _, _) -> invalid_arg "Hexec.encode: store width W8s"
  | Store (w, rv, base, off) -> word (if w = W8 then Sb else Sw) 0 rv base 0 off
  | Branch (((Beq | Bne) as c), rs, rt, tgt) -> word (branch_op c) 0 rs rt 0 tgt
  | Branch (c, rs, _, tgt) -> word (branch_op c) 0 rs 0 0 tgt
  | Jump tgt -> word Jump 0 0 0 0 tgt
  | Mul64 rs -> word Mul64 0 guest_eax rs 0 0
  | Div64 { divisor; signed } ->
    word (if signed then Div64s else Div64u) 0 guest_eax guest_edx divisor 0
  | Trap (Divide_error, r) -> word Trap_de 0 r 0 0 0
  | Trap (Divide_overflow, r) -> word Trap_ov 0 r 0 0 0
  | Nop -> word Nop 0 0 0 0 0

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let bit b = if b then 1 else 0
let field_mask size = (1 lsl size) - 1

let eval w a b =
  let imm = w asr imm_shift in
  match Array.unsafe_get opcodes (w land opcode_mask) with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Nor -> mask32 (lnot (a lor b))
  | Slt -> bit (sign32 a < sign32 b)
  | Sltu -> bit (a < b)
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
  | Addi -> mask32 (a + imm)
  | Andi -> a land (imm land 0xFFFF)
  | Ori -> a lor (imm land 0xFFFF)
  | Xori -> a lxor (imm land 0xFFFF)
  | Slti -> bit (sign32 a < imm)
  | Sltiu -> bit (a < mask32 imm)
  | Lui -> (imm land 0xFFFF) lsl 16
  | Sll -> mask32 (a lsl (imm land 31))
  | Srl -> mask32 a lsr (imm land 31)
  | Sra -> mask32 (sign32 a asr (imm land 31))
  | Sllv -> mask32 (a lsl (b land 31))
  | Srlv -> mask32 a lsr (b land 31)
  | Srav -> mask32 (sign32 a asr (b land 31))
  | Ext -> (a lsr (imm land 63)) land field_mask (imm lsr 6)
  | Ins ->
    let pos = imm land 63 and m = field_mask (imm lsr 6) in
    mask32 (a land lnot (m lsl pos) lor ((b land m) lsl pos))
  | Nop -> 0
  | Beq -> bit (a = b)
  | Bne -> bit (a <> b)
  | Blez -> bit (sign32 a <= 0)
  | Bgtz -> bit (sign32 a > 0)
  | Bltz -> bit (sign32 a < 0)
  | Bgez -> bit (sign32 a >= 0)
  | Jump -> 1
  | Trap_de | Trap_ov -> bit (a <> 0)
  | Mul64 | Div64u | Div64s | Lb | Lbs | Lw | Sb | Sw ->
    invalid_arg "Hexec.eval: not an ALU, branch or trap word"

let trap w : Hinsn.trap =
  match opcodes.(w land opcode_mask) with
  | Trap_de -> Divide_error
  | Trap_ov -> Divide_overflow
  | _ -> invalid_arg "Hexec.trap: not a trap word"

let wide regs w : Hinsn.trap option =
  let a = regs.(rs w) and b = regs.(rt w) in
  let write lo hi =
    regs.(guest_eax) <- Int64.to_int (Int64.logand lo 0xFFFFFFFFL);
    regs.(guest_edx) <- Int64.to_int (Int64.logand hi 0xFFFFFFFFL);
    None
  in
  match opcodes.(w land opcode_mask) with
  | Mul64 ->
    let wide = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    write wide (Int64.shift_right_logical wide 32)
  | Div64u | Div64s as op ->
    let d32 = regs.(ru w) in
    if d32 = 0 then Some Divide_error
    else begin
      let dividend =
        Int64.logor (Int64.shift_left (Int64.of_int b) 32) (Int64.of_int a)
      in
      if op = Div64s then begin
        let d = Int64.of_int (sign32 d32) in
        let q = Int64.div dividend d in
        if q > 0x7FFFFFFFL || q < -0x80000000L then Some Divide_overflow
        else write q (Int64.rem dividend d)
      end
      else begin
        let d = Int64.of_int d32 in
        let q = Int64.unsigned_div dividend d in
        if Int64.unsigned_compare q 0xFFFFFFFFL > 0 then Some Divide_overflow
        else write q (Int64.unsigned_rem dividend d)
      end
    end
  | _ -> invalid_arg "Hexec.wide: not a Mul64 or Div64 word"

(* Folding helpers: one operation's word, immediate in place. *)
let eval_alu3 op a b = eval (number (alu3_op op)) a b
let eval_alui op a imm = eval (word (alui_op op) 0 0 0 0 imm) a 0
let eval_shift op v count = eval (number (shiftv_op op)) v count
let eval_branch c a b = eval (number (branch_op c)) a b <> 0

(* ------------------------------------------------------------------ *)
(* The block runner                                                    *)
(* ------------------------------------------------------------------ *)

type mem_access = {
  load : Hinsn.width -> int -> int;
  store : Hinsn.width -> int -> int -> unit;
}

type block_result =
  | Fell_through
  | Trap of Hinsn.trap
  | Out_of_steps

let set regs r v = if r <> 0 then regs.(r) <- mask32 v

let run_block ~code ~regs ~mem ~fuel =
  let ops = Array.map encode code in
  let n = Array.length ops in
  let rec go pc budget =
    if budget <= 0 then Out_of_steps
    else if pc >= n then Fell_through
    else begin
      let w = ops.(pc) in
      let a = regs.(rs w) and b = regs.(rt w) in
      let next () = go (pc + 1) (budget - 1) in
      match kind w with
      | Alu ->
        set regs (rd w) (eval w a b);
        next ()
      | Branch -> if eval w a b <> 0 then go (imm w) (budget - 1) else next ()
      | Trap -> if eval w a b <> 0 then Trap (trap w) else next ()
      | Mul64 | Div64 -> (
        match wide regs w with None -> next () | Some t -> Trap t)
      | Load width ->
        set regs (rd w) (mem.load width (mask32 (a + imm w)));
        next ()
      | Store width ->
        mem.store width (mask32 (b + imm w)) (if width = W8 then a land 0xFF else a);
        next ()
    end
  in
  go 0 fuel
