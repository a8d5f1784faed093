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
let iter_regs ~def ~use = function
  | Alu3 (_, rd, rs, rt) | Shiftv (_, rd, rs, rt) ->
    def rd;
    use rs;
    use rt
  | Alui (_, rd, rs, _) | Shifti (_, rd, rs, _) | Ext (rd, rs, _, _)
  | Load (_, rd, rs, _) ->
    def rd;
    use rs
  | Lui (rd, _) -> def rd
  | Ins (rd, rs, _, _) ->
    def rd;
    use rd;
    use rs
  | Store (_, rs, rt, _) | Branch ((Beq | Bne), rs, rt, _) ->
    use rs;
    use rt
  | Branch ((Blez | Bgtz | Bltz | Bgez), rs, _, _) | Trap (_, rs) -> use rs
  | Mul64 rs ->
    def guest_eax;
    def guest_edx;
    use guest_eax;
    use rs
  | Div64 { divisor; _ } ->
    def guest_eax;
    def guest_edx;
    use guest_eax;
    use guest_edx;
    use divisor
  | Jump _ | Nop -> ()

let defs insn =
  let acc = ref [] in
  iter_regs ~def:(fun r -> acc := r :: !acc) ~use:ignore insn;
  List.rev !acc

let uses insn =
  let acc = ref [] in
  iter_regs ~def:ignore ~use:(fun r -> acc := r :: !acc) insn;
  List.rev !acc

let max_reg = function
  | Alu3 (_, a, b, c) | Shiftv (_, a, b, c) -> Int.max a (Int.max b c)
  | Alui (_, a, b, _) | Shifti (_, a, b, _) | Ext (a, b, _, _)
  | Ins (a, b, _, _) | Load (_, a, b, _) | Store (_, a, b, _)
  | Branch (_, a, b, _) -> Int.max a b
  | Lui (a, _) | Trap (_, a) | Mul64 a | Div64 { divisor = a; _ } -> a
  | Jump _ | Nop -> 0

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
