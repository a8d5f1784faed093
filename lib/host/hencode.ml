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

(* One ordered table per enum. A constructor's field value is its
   position in the table, offset by the family's first major opcode where
   the enum selects the major. *)
let alu3s : Hinsn.alu3 array =
  [| Add; Sub; And; Or; Xor; Nor; Slt; Sltu; Mul; Mulh; Mulhu |]

let shifts : Hinsn.shift array = [| Sll; Srl; Sra |]
let aluis : Hinsn.alui array = [| Addi; Andi; Ori; Xori; Slti; Sltiu |]
let alui_base = 2
let loads : Hinsn.width array = [| W8; W8s; W32 |]
let load_base = 13
let stores : Hinsn.width array = [| W8; W32 |]
let store_base = 16
let brconds : Hinsn.brcond array = [| Beq; Bne; Blez; Bgtz; Bltz; Bgez |]
let brcond_base = 18

(* Position of [x] in a table of constant constructors. *)
let index table x =
  let i = ref 0 in
  while table.(!i) != x do incr i done;
  !i

let nth what table i =
  if i < Array.length table then table.(i) else invalid "bad %s fn %d" what i

let in_family table base major =
  major >= base && major < base + Array.length table

(* Arithmetic immediates are signed, logical ones unsigned. *)
let alui_signed : Hinsn.alui -> bool = function
  | Addi | Slti -> true
  | Andi | Ori | Xori | Sltiu -> false

let encode (insn : Hinsn.t) =
  match insn with
  | Nop -> 0
  | Alu3 (op, rd, rs, rt) -> rr ~major:1 ~rd ~rs ~rt ~fn:(index alu3s op)
  | Alui (op, rd, rs, imm) ->
    let imm =
      if alui_signed op then s16 "immediate" imm else u16 "immediate" imm
    in
    make ~major:(alui_base + index aluis op) ~rd ~rs:(reg_field rs) ~rest:imm
  | Lui (rd, imm) -> make ~major:8 ~rd ~rs:0 ~rest:(u16 "lui immediate" imm)
  | Shifti (op, rd, rs, n) ->
    rr ~major:9 ~rd ~rs ~rt:(field5 "shamt" n) ~fn:(index shifts op)
  | Shiftv (op, rd, rs, rc) -> rr ~major:10 ~rd ~rs ~rt:rc ~fn:(index shifts op)
  | Ext (rd, rs, pos, size) ->
    rr ~major:11 ~rd ~rs ~rt:(field5 "pos" pos) ~fn:(field5 "size" size)
  | Ins (rd, rs, pos, size) ->
    rr ~major:12 ~rd ~rs ~rt:(field5 "pos" pos) ~fn:(field5 "size" size)
  | Load (w, rd, base, off) ->
    make ~major:(load_base + index loads w) ~rd ~rs:base
      ~rest:(s16 "offset" off)
  | Store (W8s, _, _, _) -> invalid "store width W8s"
  | Store (w, rv, base, off) ->
    make ~major:(store_base + index stores w) ~rd:rv ~rs:base
      ~rest:(s16 "offset" off)
  | Branch (c, rs, rt, tgt) ->
    make ~major:(brcond_base + index brconds c) ~rd:rs ~rs:rt
      ~rest:(u16 "branch target" tgt)
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
  | 1 -> Alu3 (nth "alu3" alu3s fn, rd, rs, rt)
  | m when in_family aluis alui_base m ->
    let op = aluis.(m - alui_base) in
    Alui (op, rd, rs, if alui_signed op then sext16 rest else rest)
  | 8 -> Lui (rd, rest)
  | 9 -> Shifti (nth "shift" shifts fn, rd, rs, rt)
  | 10 -> Shiftv (nth "shift" shifts fn, rd, rs, rt)
  | 11 -> Ext (rd, rs, rt, fn)
  | 12 -> Ins (rd, rs, rt, fn)
  | m when in_family loads load_base m ->
    Load (loads.(m - load_base), rd, rs, sext16 rest)
  | m when in_family stores store_base m ->
    Store (stores.(m - store_base), rd, rs, sext16 rest)
  | m when in_family brconds brcond_base m ->
    Branch (brconds.(m - brcond_base), rd, rs, rest)
  | 24 -> Jump rest
  | 25 -> Mul64 rs
  | 26 -> Div64 { divisor = rs; signed = false }
  | 27 -> Div64 { divisor = rs; signed = true }
  | 28 -> Trap ((if rest land 1 = 0 then Divide_error else Divide_overflow), rs)
  | n -> invalid "unknown major opcode %d" n
