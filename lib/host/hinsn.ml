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

let defs = function
  | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
  | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _)
  | Ext (rd, _, _, _) | Load (_, rd, _, _) -> [ rd ]
  | Ins (rd, _, _, _) -> [ rd ] (* also a use; see [uses] *)
  | Mul64 _ | Div64 _ -> [ guest_eax; guest_edx ]
  | Store _ | Branch _ | Jump _ | Trap _ | Nop -> []

let uses = function
  | Alu3 (_, _, rs, rt) -> [ rs; rt ]
  | Alui (_, _, rs, _) -> [ rs ]
  | Lui _ -> []
  | Shifti (_, _, rs, _) -> [ rs ]
  | Shiftv (_, _, rs, rc) -> [ rs; rc ]
  | Ext (_, rs, _, _) -> [ rs ]
  | Ins (rd, rs, _, _) -> [ rd; rs ]
  | Load (_, _, base, _) -> [ base ]
  | Store (_, rv, base, _) -> [ rv; base ]
  | Branch (Beq, rs, rt, _) | Branch (Bne, rs, rt, _) -> [ rs; rt ]
  | Branch ((Blez | Bgtz | Bltz | Bgez), rs, _, _) -> [ rs ]
  | Jump _ -> []
  | Mul64 rs -> [ guest_eax; rs ]
  | Div64 { divisor; _ } -> [ guest_eax; guest_edx; divisor ]
  | Trap (_, r) -> [ r ]
  | Nop -> []

(* Register-set bitmasks over allocated code (every register < 32, so a
   set fits one immediate int). r0 is the hardwired zero and never gates
   execution, so it is excluded here — mask consumers need no [r <> 0]
   test. Computed once per translated block (stored on the block); the
   execution engine then does [land] tests per step instead of walking
   [uses]/[defs] lists. *)

let reg_mask r =
  if r = 0 then 0
  else if r >= 62 then invalid_arg "Hinsn.reg_mask: unallocated register"
  else 1 lsl r

(* [uses]/[defs] again, matched directly so that building a block's masks
   allocates no list per instruction; the test suite checks them against
   folds over those lists. *)
let use_mask = function
  | Alu3 (_, _, rs, rt) | Shiftv (_, _, rs, rt) -> reg_mask rs lor reg_mask rt
  | Alui (_, _, rs, _) | Shifti (_, _, rs, _) | Ext (_, rs, _, _)
  | Load (_, _, rs, _) | Trap (_, rs) -> reg_mask rs
  | Ins (rd, rs, _, _) -> reg_mask rd lor reg_mask rs
  | Store (_, rv, base, _) -> reg_mask rv lor reg_mask base
  | Branch ((Beq | Bne), rs, rt, _) -> reg_mask rs lor reg_mask rt
  | Branch ((Blez | Bgtz | Bltz | Bgez), rs, _, _) -> reg_mask rs
  | Mul64 rs -> reg_mask guest_eax lor reg_mask rs
  | Div64 { divisor; _ } ->
    reg_mask guest_eax lor reg_mask guest_edx lor reg_mask divisor
  | Lui _ | Jump _ | Nop -> 0

let def_mask = function
  | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
  | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _)
  | Ext (rd, _, _, _) | Ins (rd, _, _, _) | Load (_, rd, _, _) -> reg_mask rd
  | Mul64 _ | Div64 _ -> reg_mask guest_eax lor reg_mask guest_edx
  | Store _ | Branch _ | Jump _ | Trap _ | Nop -> 0

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

let map_target f = function
  | Branch (c, rs, rt, tgt) -> Branch (c, rs, rt, f tgt)
  | Jump tgt -> Jump (f tgt)
  | insn -> insn

let has_side_effect = function
  | Store _ | Branch _ | Jump _ | Trap _ | Mul64 _ | Div64 _ | Load _ -> true
  | Alu3 _ | Alui _ | Lui _ | Shifti _ | Shiftv _ | Ext _ | Ins _ | Nop -> false

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
