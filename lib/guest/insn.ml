type reg = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

let reg_index = function
  | EAX -> 0 | ECX -> 1 | EDX -> 2 | EBX -> 3
  | ESP -> 4 | EBP -> 5 | ESI -> 6 | EDI -> 7

let regs = [| EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI |]

type scale = S1 | S2 | S4 | S8

let scales = [| S1; S2; S4; S8 |]

let scale_factor = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

type 'a mem_operand = {
  base : reg option;
  index : (reg * scale) option;
  disp : 'a;
}

type 'a operand =
  | Reg of reg
  | Imm of 'a
  | Mem of 'a mem_operand

type cond =
  | E | NE | L | LE | G | GE | B | BE | A | AE | S | NS | O | NO | P | NP

let cond_index = function
  | E -> 0 | NE -> 1 | L -> 2 | LE -> 3 | G -> 4 | GE -> 5
  | B -> 6 | BE -> 7 | A -> 8 | AE -> 9 | S -> 10 | NS -> 11
  | O -> 12 | NO -> 13 | P -> 14 | NP -> 15

let conds = [| E; NE; L; LE; G; GE; B; BE; A; AE; S; NS; O; NO; P; NP |]

let negate_cond = function
  | E -> NE | NE -> E | L -> GE | LE -> G | G -> LE | GE -> L
  | B -> AE | BE -> A | A -> BE | AE -> B | S -> NS | NS -> S
  | O -> NO | NO -> O | P -> NP | NP -> P

type alu = Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test

let alus = [| Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test |]

let alu_writes_dst = function
  | Cmp | Test -> false
  | Add | Adc | Sub | Sbb | And | Or | Xor -> true

type shift = Shl | Shr | Sar | Rol | Ror

let shifts = [| Shl; Shr; Sar; Rol; Ror |]

type unop = Inc | Dec | Neg | Not

let unops = [| Inc; Dec; Neg; Not |]

type shift_amount = Sh_imm of int | Sh_cl

type 'a target =
  | Direct of 'a
  | Indirect of 'a operand

type 'a insn =
  | Mov of 'a operand * 'a operand
  | Movb of 'a operand * 'a operand
  | Movzxb of reg * 'a operand
  | Movsxb of reg * 'a operand
  | Lea of reg * 'a mem_operand
  | Alu of alu * 'a operand * 'a operand
  | Unop of unop * 'a operand
  | Shift of shift * 'a operand * shift_amount
  | Imul of reg * 'a operand
  | Mul of 'a operand
  | Div of 'a operand
  | Idiv of 'a operand
  | Cdq
  | Push of 'a operand
  | Pop of 'a operand
  | Xchg of reg * reg
  | Setcc of cond * 'a operand
  | Cmovcc of cond * reg * 'a operand
  | Rep_movsb
  | Rep_stosb
  | Jmp of 'a target
  | Jcc of cond * 'a
  | Call of 'a target
  | Ret
  | Int of int
  | Nop
  | Hlt

type 'a t = 'a insn

let map_mem f { base; index; disp } = { base; index; disp = f disp }

let map_operand f = function
  | Reg r -> Reg r
  | Imm v -> Imm (f v)
  | Mem m -> Mem (map_mem f m)

let map_target f = function
  | Direct a -> Direct (f a)
  | Indirect op -> Indirect (map_operand f op)

let map f insn =
  let op = map_operand f in
  match insn with
  | Mov (d, s) -> Mov (op d, op s)
  | Movb (d, s) -> Movb (op d, op s)
  | Movzxb (r, s) -> Movzxb (r, op s)
  | Movsxb (r, s) -> Movsxb (r, op s)
  | Lea (r, m) -> Lea (r, map_mem f m)
  | Alu (a, d, s) -> Alu (a, op d, op s)
  | Unop (u, d) -> Unop (u, op d)
  | Shift (sh, d, amt) -> Shift (sh, op d, amt)
  | Imul (r, s) -> Imul (r, op s)
  | Mul s -> Mul (op s)
  | Div s -> Div (op s)
  | Idiv s -> Idiv (op s)
  | Cdq -> Cdq
  | Push s -> Push (op s)
  | Pop d -> Pop (op d)
  | Xchg (a, b) -> Xchg (a, b)
  | Setcc (c, d) -> Setcc (c, op d)
  | Cmovcc (c, rd, s) -> Cmovcc (c, rd, op s)
  | Rep_movsb -> Rep_movsb
  | Rep_stosb -> Rep_stosb
  | Jmp t -> Jmp (map_target f t)
  | Jcc (c, a) -> Jcc (c, f a)
  | Call t -> Call (map_target f t)
  | Ret -> Ret
  | Int n -> Int n
  | Nop -> Nop
  | Hlt -> Hlt

let is_block_end = function
  | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt -> true
  (* String operations loop through the dispatcher: one element per block
     execution, the block chained to itself. *)
  | Rep_movsb | Rep_stosb -> true
  | Mov _ | Movb _ | Movzxb _ | Movsxb _ | Lea _ | Alu _ | Unop _ | Shift _
  | Imul _ | Mul _ | Div _ | Idiv _ | Cdq | Push _ | Pop _ | Xchg _
  | Setcc _ | Cmovcc _ | Nop -> false

let reg_name = function
  | EAX -> "eax" | ECX -> "ecx" | EDX -> "edx" | EBX -> "ebx"
  | ESP -> "esp" | EBP -> "ebp" | ESI -> "esi" | EDI -> "edi"

let cond_name = function
  | E -> "e" | NE -> "ne" | L -> "l" | LE -> "le" | G -> "g" | GE -> "ge"
  | B -> "b" | BE -> "be" | A -> "a" | AE -> "ae" | S -> "s" | NS -> "ns"
  | O -> "o" | NO -> "no" | P -> "p" | NP -> "np"

let pp_reg ppf r = Format.pp_print_string ppf (reg_name r)
let pp_cond ppf c = Format.pp_print_string ppf (cond_name c)

let pp_mem pp_a ppf { base; index; disp } =
  let parts = ref [] in
  (match index with
   | Some (r, s) ->
     parts := Printf.sprintf "%s*%d" (reg_name r) (scale_factor s) :: !parts
   | None -> ());
  (match base with Some r -> parts := reg_name r :: !parts | None -> ());
  match !parts with
  | [] -> Format.fprintf ppf "[%a]" pp_a disp
  | parts -> Format.fprintf ppf "[%s+%a]" (String.concat "+" parts) pp_a disp

let pp_operand pp_a ppf = function
  | Reg r -> pp_reg ppf r
  | Imm v -> pp_a ppf v
  | Mem m -> pp_mem pp_a ppf m

let pp_target pp_a ppf = function
  | Direct a -> pp_a ppf a
  | Indirect op -> Format.fprintf ppf "*%a" (pp_operand pp_a) op

let alu_name = function
  | Add -> "add" | Adc -> "adc" | Sub -> "sub" | Sbb -> "sbb"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Cmp -> "cmp" | Test -> "test"

let shift_name = function
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Rol -> "rol" | Ror -> "ror"

let unop_name = function Inc -> "inc" | Dec -> "dec" | Neg -> "neg" | Not -> "not"

let pp pp_a ppf insn =
  let op = pp_operand pp_a in
  match insn with
  | Mov (d, s) -> Format.fprintf ppf "mov %a, %a" op d op s
  | Movb (d, s) -> Format.fprintf ppf "movb %a, %a" op d op s
  | Movzxb (r, s) -> Format.fprintf ppf "movzxb %a, %a" pp_reg r op s
  | Movsxb (r, s) -> Format.fprintf ppf "movsxb %a, %a" pp_reg r op s
  | Lea (r, m) -> Format.fprintf ppf "lea %a, %a" pp_reg r (pp_mem pp_a) m
  | Alu (a, d, s) -> Format.fprintf ppf "%s %a, %a" (alu_name a) op d op s
  | Unop (u, d) -> Format.fprintf ppf "%s %a" (unop_name u) op d
  | Shift (sh, d, Sh_imm n) -> Format.fprintf ppf "%s %a, %d" (shift_name sh) op d n
  | Shift (sh, d, Sh_cl) -> Format.fprintf ppf "%s %a, cl" (shift_name sh) op d
  | Imul (r, s) -> Format.fprintf ppf "imul %a, %a" pp_reg r op s
  | Mul s -> Format.fprintf ppf "mul %a" op s
  | Div s -> Format.fprintf ppf "div %a" op s
  | Idiv s -> Format.fprintf ppf "idiv %a" op s
  | Cdq -> Format.pp_print_string ppf "cdq"
  | Push s -> Format.fprintf ppf "push %a" op s
  | Pop d -> Format.fprintf ppf "pop %a" op d
  | Xchg (a, b) -> Format.fprintf ppf "xchg %a, %a" pp_reg a pp_reg b
  | Setcc (c, d) -> Format.fprintf ppf "set%a %a" pp_cond c op d
  | Cmovcc (c, rd, s) ->
    Format.fprintf ppf "cmov%a %a, %a" pp_cond c pp_reg rd op s
  | Rep_movsb -> Format.pp_print_string ppf "rep movsb"
  | Rep_stosb -> Format.pp_print_string ppf "rep stosb"
  | Jmp t -> Format.fprintf ppf "jmp %a" (pp_target pp_a) t
  | Jcc (c, a) -> Format.fprintf ppf "j%a %a" pp_cond c pp_a a
  | Call t -> Format.fprintf ppf "call %a" (pp_target pp_a) t
  | Ret -> Format.pp_print_string ppf "ret"
  | Int n -> Format.fprintf ppf "int 0x%x" n
  | Nop -> Format.pp_print_string ppf "nop"
  | Hlt -> Format.pp_print_string ppf "hlt"

let pp_addr ppf a = Format.fprintf ppf "0x%x" a

let to_string insn = Format.asprintf "%a" (pp pp_addr) insn
