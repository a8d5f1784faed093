open Vat_guest

let all = Flags.all_mask
let cf = Flags.cf_bit
let pf = Flags.pf_bit
let zf = Flags.zf_bit
let sf = Flags.sf_bit
let ovf = Flags.of_bit

let cond_flags : Insn.cond -> int = function
  | E | NE -> zf
  | L | GE -> sf lor ovf
  | LE | G -> zf lor sf lor ovf
  | B | AE -> cf
  | BE | A -> cf lor zf
  | S | NS -> sf
  | O | NO -> ovf
  | P | NP -> pf

(* Flags an instruction (unconditionally) defines. Shift-by-CL and
   rotate-by-CL conservatively report their written set as both defined
   and used, since a zero count preserves them. *)
let def_flags (insn : int Insn.t) =
  match insn with
  | Alu ((Add | Adc | Sub | Sbb | Cmp), _, _) -> all
  | Alu ((And | Or | Xor | Test), _, _) -> all
  | Unop ((Inc | Dec), _) -> pf lor zf lor sf lor ovf
  | Unop (Neg, _) -> all
  | Unop (Not, _) -> 0
  | Shift ((Shl | Shr | Sar), _, Sh_imm 0) -> 0
  | Shift ((Shl | Shr | Sar), _, _) -> all
  | Shift ((Rol | Ror), _, Sh_imm 0) -> 0
  | Shift ((Rol | Ror), _, _) -> cf lor ovf
  | Imul _ | Mul _ -> all
  | Div _ | Idiv _ -> 0
  | Mov _ | Movb _ | Movzxb _ | Movsxb _ | Lea _ | Cdq | Push _ | Pop _
  | Xchg _ | Setcc _ | Cmovcc _ | Rep_movsb | Rep_stosb | Jmp _ | Jcc _
  | Call _ | Ret | Int _ | Nop | Hlt -> 0

let use_flags (insn : int Insn.t) =
  match insn with
  | Alu ((Adc | Sbb), _, _) -> cf
  | Unop ((Inc | Dec), _) -> cf (* CF passes through *)
  | Shift ((Shl | Shr | Sar), _, Sh_cl) -> all (* count 0 preserves all *)
  | Shift ((Rol | Ror), _, Sh_cl) -> cf lor ovf
  | Setcc (c, _) -> cond_flags c
  | Cmovcc (c, _, _) -> cond_flags c
  | Jcc (c, _) -> cond_flags c
  | Int _ -> 0
  | Alu ((Add | Sub | Cmp | Test | And | Or | Xor), _, _)
  | Unop ((Neg | Not), _)
  | Shift (_, _, Sh_imm _)
  | Imul _ | Mul _ | Div _ | Idiv _
  | Mov _ | Movb _ | Movzxb _ | Movsxb _ | Lea _ | Cdq | Push _ | Pop _
  | Xchg _ | Rep_movsb | Rep_stosb | Jmp _ | Call _ | Ret | Nop | Hlt -> 0

let needed insns =
  let n = Array.length insns in
  let result = Array.make n 0 in
  let live = ref all in
  for i = n - 1 downto 0 do
    let d = def_flags insns.(i) and u = use_flags insns.(i) in
    result.(i) <- d land !live;
    live := !live land lnot d lor u
  done;
  result
