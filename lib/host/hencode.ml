exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let bytes_per_insn = 4

let reg_field r =
  if r < 0 || r > 31 then invalid "register %d out of hardware range" r else r

let u16 what v =
  if v < 0 || v > 0xFFFF then invalid "%s %d does not fit 16 bits" what v else v

let s16 what v =
  if v < -32768 || v > 32767 then invalid "%s %d does not fit signed 16 bits" what v
  else v land 0xFFFF

let sext16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

let field5 what v =
  if v < 0 || v > 31 then invalid "%s %d does not fit 5 bits" what v else v

(* Word layout: [31:26] major | [25:21] rd | [20:16] rs | [15:0] rest.
   For register-register forms, rest = [15:11] rt | [10:4] fn | [3:0] 0. *)
let make ~major ~rd ~rs ~rest =
  (major lsl 26) lor (reg_field rd lsl 21) lor (reg_field rs lsl 16) lor rest

let rr ~major ~rd ~rs ~rt ~fn =
  make ~major ~rd ~rs ~rest:((reg_field rt lsl 11) lor (fn lsl 4))

let alu3_index : Hinsn.alu3 -> int = function
  | Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4 | Nor -> 5
  | Slt -> 6 | Sltu -> 7 | Mul -> 8 | Mulh -> 9 | Mulhu -> 10

let alu3_of_index : int -> Hinsn.alu3 = function
  | 0 -> Add | 1 -> Sub | 2 -> And | 3 -> Or | 4 -> Xor | 5 -> Nor
  | 6 -> Slt | 7 -> Sltu | 8 -> Mul | 9 -> Mulh | 10 -> Mulhu
  | n -> invalid "bad alu3 fn %d" n

let alui_major : Hinsn.alui -> int = function
  | Addi -> 2 | Andi -> 3 | Ori -> 4 | Xori -> 5 | Slti -> 6 | Sltiu -> 7

let shift_index : Hinsn.shift -> int = function Sll -> 0 | Srl -> 1 | Sra -> 2

let shift_of_index : int -> Hinsn.shift = function
  | 0 -> Sll | 1 -> Srl | 2 -> Sra | n -> invalid "bad shift fn %d" n

let brcond_major : Hinsn.brcond -> int = function
  | Beq -> 18 | Bne -> 19 | Blez -> 20 | Bgtz -> 21 | Bltz -> 22 | Bgez -> 23

let encode (insn : Hinsn.t) =
  match insn with
  | Nop -> 0
  | Alu3 (op, rd, rs, rt) -> rr ~major:1 ~rd ~rs ~rt ~fn:(alu3_index op)
  | Alui (op, rd, rs, imm) ->
    let imm =
      match op with
      | Addi | Slti -> s16 "immediate" imm
      | Andi | Ori | Xori | Sltiu -> u16 "immediate" imm
    in
    make ~major:(alui_major op) ~rd ~rs:(reg_field rs) ~rest:imm
  | Lui (rd, imm) -> make ~major:8 ~rd ~rs:0 ~rest:(u16 "lui immediate" imm)
  | Shifti (op, rd, rs, n) ->
    rr ~major:9 ~rd ~rs ~rt:(field5 "shamt" n) ~fn:(shift_index op)
  | Shiftv (op, rd, rs, rc) -> rr ~major:10 ~rd ~rs ~rt:rc ~fn:(shift_index op)
  | Ext (rd, rs, pos, size) ->
    rr ~major:11 ~rd ~rs ~rt:(field5 "pos" pos) ~fn:(field5 "size" size)
  | Ins (rd, rs, pos, size) ->
    rr ~major:12 ~rd ~rs ~rt:(field5 "pos" pos) ~fn:(field5 "size" size)
  | Load (w, rd, base, off) ->
    let major = match w with W8 -> 13 | W8s -> 14 | W32 -> 15 in
    make ~major ~rd ~rs:base ~rest:(s16 "offset" off)
  | Store (w, rv, base, off) ->
    let major =
      match w with W8 -> 16 | W32 -> 17 | W8s -> invalid "store width W8s"
    in
    make ~major ~rd:rv ~rs:base ~rest:(s16 "offset" off)
  | Branch (c, rs, rt, tgt) ->
    make ~major:(brcond_major c) ~rd:rs ~rs:rt ~rest:(u16 "branch target" tgt)
  | Jump tgt -> make ~major:24 ~rd:0 ~rs:0 ~rest:(u16 "jump target" tgt)
  | Mul64 rs -> make ~major:25 ~rd:0 ~rs ~rest:0
  | Div64 { divisor; signed } ->
    make ~major:(if signed then 27 else 26) ~rd:0 ~rs:divisor ~rest:0
  | Trap (Divide_error, r) -> make ~major:28 ~rd:0 ~rs:r ~rest:0
  | Trap (Divide_overflow, r) -> make ~major:28 ~rd:0 ~rs:r ~rest:1

let decode word : Hinsn.t =
  let major = (word lsr 26) land 0x3F in
  let rd = (word lsr 21) land 0x1F in
  let rs = (word lsr 16) land 0x1F in
  let rest = word land 0xFFFF in
  let rt = (rest lsr 11) land 0x1F in
  let fn = (rest lsr 4) land 0x7F in
  match major with
  | 0 -> Nop
  | 1 -> Alu3 (alu3_of_index fn, rd, rs, rt)
  | 2 -> Alui (Addi, rd, rs, sext16 rest)
  | 3 -> Alui (Andi, rd, rs, rest)
  | 4 -> Alui (Ori, rd, rs, rest)
  | 5 -> Alui (Xori, rd, rs, rest)
  | 6 -> Alui (Slti, rd, rs, sext16 rest)
  | 7 -> Alui (Sltiu, rd, rs, rest)
  | 8 -> Lui (rd, rest)
  | 9 -> Shifti (shift_of_index fn, rd, rs, rt)
  | 10 -> Shiftv (shift_of_index fn, rd, rs, rt)
  | 11 -> Ext (rd, rs, rt, fn)
  | 12 -> Ins (rd, rs, rt, fn)
  | 13 -> Load (W8, rd, rs, sext16 rest)
  | 14 -> Load (W8s, rd, rs, sext16 rest)
  | 15 -> Load (W32, rd, rs, sext16 rest)
  | 16 -> Store (W8, rd, rs, sext16 rest)
  | 17 -> Store (W32, rd, rs, sext16 rest)
  | 18 -> Branch (Beq, rd, rs, rest)
  | 19 -> Branch (Bne, rd, rs, rest)
  | 20 -> Branch (Blez, rd, rs, rest)
  | 21 -> Branch (Bgtz, rd, rs, rest)
  | 22 -> Branch (Bltz, rd, rs, rest)
  | 23 -> Branch (Bgez, rd, rs, rest)
  | 24 -> Jump rest
  | 25 -> Mul64 rs
  | 26 -> Div64 { divisor = rs; signed = false }
  | 27 -> Div64 { divisor = rs; signed = true }
  | 28 -> Trap ((if rest land 1 = 0 then Divide_error else Divide_overflow), rs)
  | n -> invalid "unknown major opcode %d" n
