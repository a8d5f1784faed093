type reg = int

let r0 = 0
let guest_reg_base = 8
let flags_reg = 16

(* r1..r7 and r17..r25 are codegen temporaries; r26..r31 are reserved for
   the runtime system (dispatch scratch, spill base, link). *)
let temp_regs = [ 1; 2; 3; 4; 5; 6; 7; 17; 18; 19; 20; 21; 22; 23; 24; 25 ]
let first_vreg = 32

type alu3 = Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Mul | Mulh | Mulhu
type alui = Addi | Andi | Ori | Xori | Slti | Sltiu
type shift = Sll | Srl | Sra
type width = W8 | W8s | W32
type brcond = Beq | Bne | Blez | Bgtz | Bltz | Bgez

type t =
  | Alu3 of alu3 * reg * reg * reg
  | Alui of alui * reg * reg * int
  | Lui of reg * int
  | Shifti of shift * reg * reg * int
  | Shiftv of shift * reg * reg * reg
  | Ext of reg * reg * int * int
  | Ins of reg * reg * int * int
  | Load of width * reg * reg * int
  | Store of width * reg * reg * int
  | Branch of brcond * reg * reg * int
  | Jump of int
  | Mul64 of reg
  | Div64 of { divisor : reg; signed : bool }
  | Trap of trap * reg
  | Nop

and trap = Divide_error | Divide_overflow

let guest_eax = guest_reg_base (* index 0 *)
let guest_edx = guest_reg_base + 2

(* The one definition of what each instruction writes and reads, in
   order; [defs] and [uses] list the same registers. *)
let[@inline] put (a : int array) d0 d1 u0 u1 u2 =
  a.(0) <- d0;
  a.(1) <- d1;
  a.(2) <- u0;
  a.(3) <- u1;
  a.(4) <- u2

let operands insn a =
  match insn with
  | Alu3 (_, rd, rs, rt) | Shiftv (_, rd, rs, rt) -> put a rd (-1) rs rt (-1)
  | Alui (_, rd, rs, _) | Shifti (_, rd, rs, _) | Ext (rd, rs, _, _)
  | Load (_, rd, rs, _) -> put a rd (-1) rs (-1) (-1)
  | Lui (rd, _) -> put a rd (-1) (-1) (-1) (-1)
  | Ins (rd, rs, _, _) -> put a rd (-1) rd rs (-1)
  | Store (_, rs, rt, _) | Branch ((Beq | Bne), rs, rt, _) ->
    put a (-1) (-1) rs rt (-1)
  | Branch ((Blez | Bgtz | Bltz | Bgez), rs, _, _) | Trap (_, rs) ->
    put a (-1) (-1) rs (-1) (-1)
  | Mul64 rs -> put a guest_eax guest_edx guest_eax rs (-1)
  | Div64 { divisor; _ } ->
    put a guest_eax guest_edx guest_eax guest_edx divisor
  | Jump _ | Nop -> put a (-1) (-1) (-1) (-1) (-1)

let operand_list insn lo hi =
  let a = Array.make 5 (-1) in
  operands insn a;
  List.filter (fun r -> r >= 0) (Array.to_list (Array.sub a lo (hi - lo)))

let defs insn = operand_list insn 0 2
let uses insn = operand_list insn 2 5

let map_regs f = function
  | Alu3 (op, rd, rs, rt) -> Alu3 (op, f rd, f rs, f rt)
  | Alui (op, rd, rs, imm) -> Alui (op, f rd, f rs, imm)
  | Lui (rd, imm) -> Lui (f rd, imm)
  | Shifti (op, rd, rs, n) -> Shifti (op, f rd, f rs, n)
  | Shiftv (op, rd, rs, rc) -> Shiftv (op, f rd, f rs, f rc)
  | Ext (rd, rs, p, s) -> Ext (f rd, f rs, p, s)
  | Ins (rd, rs, p, s) -> Ins (f rd, f rs, p, s)
  | Load (w, rd, base, off) -> Load (w, f rd, f base, off)
  | Store (w, rv, base, off) -> Store (w, f rv, f base, off)
  | Branch (c, rs, rt, tgt) -> Branch (c, f rs, f rt, tgt)
  | Jump tgt -> Jump tgt
  | Mul64 rs -> Mul64 (f rs)
  | Div64 { divisor; signed } -> Div64 { divisor = f divisor; signed }
  | Trap (t, r) -> Trap (t, f r)
  | Nop -> Nop

let has_side_effect = function
  | Store _ | Branch _ | Jump _ | Trap _ | Mul64 _ | Div64 _ | Load _ -> true
  | Alu3 _ | Alui _ | Lui _ | Shifti _ | Shiftv _ | Ext _ | Ins _ | Nop -> false

let fits_s16 v = v >= -32768 && v <= 32767
let fits_u16 v = v >= 0 && v <= 0xFFFF

let const_insn rd v =
  let v = v land 0xFFFFFFFF in
  if v = 0 then Some (Alu3 (Or, rd, r0, r0))
  else if fits_u16 v then Some (Alui (Ori, rd, r0, v))
  else if fits_s16 (v - 0x100000000) then
    (* Small negative 32-bit value: addi sign-extends for free. *)
    Some (Alui (Addi, rd, r0, v - 0x100000000))
  else if v land 0xFFFF = 0 then Some (Lui (rd, v lsr 16))
  else None

let alu3_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Nor -> "nor" | Slt -> "slt" | Sltu -> "sltu" | Mul -> "mul" | Mulh -> "mulh"
  | Mulhu -> "mulhu"

let alui_name = function
  | Addi -> "addi" | Andi -> "andi" | Ori -> "ori" | Xori -> "xori"
  | Slti -> "slti" | Sltiu -> "sltiu"

let shift_name = function Sll -> "sll" | Srl -> "srl" | Sra -> "sra"

let brcond_name = function
  | Beq -> "beq" | Bne -> "bne" | Blez -> "blez" | Bgtz -> "bgtz"
  | Bltz -> "bltz" | Bgez -> "bgez"

let width_name = function W8 -> "b" | W8s -> "bs" | W32 -> "w"

let pp_reg ppf r =
  if r < first_vreg then Format.fprintf ppf "r%d" r
  else Format.fprintf ppf "v%d" (r - first_vreg)

let pp ppf = function
  | Alu3 (op, rd, rs, rt) ->
    Format.fprintf ppf "%s %a, %a, %a" (alu3_name op) pp_reg rd pp_reg rs pp_reg rt
  | Alui (op, rd, rs, imm) ->
    Format.fprintf ppf "%s %a, %a, %d" (alui_name op) pp_reg rd pp_reg rs imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %a, 0x%x" pp_reg rd imm
  | Shifti (op, rd, rs, n) ->
    Format.fprintf ppf "%s %a, %a, %d" (shift_name op) pp_reg rd pp_reg rs n
  | Shiftv (op, rd, rs, rc) ->
    Format.fprintf ppf "%sv %a, %a, %a" (shift_name op) pp_reg rd pp_reg rs pp_reg rc
  | Ext (rd, rs, p, s) ->
    Format.fprintf ppf "ext %a, %a, %d, %d" pp_reg rd pp_reg rs p s
  | Ins (rd, rs, p, s) ->
    Format.fprintf ppf "ins %a, %a, %d, %d" pp_reg rd pp_reg rs p s
  | Load (w, rd, base, off) ->
    Format.fprintf ppf "l%s %a, %d(%a)" (width_name w) pp_reg rd off pp_reg base
  | Store (w, rv, base, off) ->
    Format.fprintf ppf "s%s %a, %d(%a)" (width_name w) pp_reg rv off pp_reg base
  | Branch (c, rs, rt, tgt) ->
    Format.fprintf ppf "%s %a, %a, @%d" (brcond_name c) pp_reg rs pp_reg rt tgt
  | Jump tgt -> Format.fprintf ppf "j @%d" tgt
  | Mul64 rs -> Format.fprintf ppf "mul64 %a" pp_reg rs
  | Div64 { divisor; signed } ->
    Format.fprintf ppf "div64%s %a" (if signed then ".s" else ".u") pp_reg divisor
  | Trap (Divide_error, r) -> Format.fprintf ppf "trap.de %a" pp_reg r
  | Trap (Divide_overflow, r) -> Format.fprintf ppf "trap.ov %a" pp_reg r
  | Nop -> Format.pp_print_string ppf "nop"

let to_string insn = Format.asprintf "%a" pp insn
