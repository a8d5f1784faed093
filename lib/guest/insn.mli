(** G86 guest instruction set definitions.

    G86 is the x86-modelled CISC guest ISA this repository translates from:
    eight 32-bit general registers, five condition-code flags written by
    every ALU operation, two-operand instructions where one operand may be
    memory, a hardware stack through ESP, and a variable-length binary
    encoding (see {!Encode}/{!Decode}).

    The instruction type is polymorphic in its immediate/address type ['a]:
    concrete machine instructions use [int insn] (absolute addresses), while
    the assembler builds [Asm.expr insn] with symbolic labels and maps them
    down once layout is known. *)

type reg = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

val regs : reg array
(** Every register, in encoding order. Each enum here has one such table
    ([regs], [scales], [conds], [alus], [shifts], [unops]): a
    constructor's field value in the binary encoding is its position, and
    the decoder indexes the table. The tables must not be mutated. *)

val reg_index : reg -> int
(** 0..7, in the order above: [regs.(reg_index r) = r]. *)

type scale = S1 | S2 | S4 | S8

val scales : scale array

val scale_factor : scale -> int

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

val conds : cond array

val cond_index : cond -> int
(** [conds.(cond_index c) = c]. *)

val negate_cond : cond -> cond

type alu = Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test

val alus : alu array

val alu_writes_dst : alu -> bool
(** [Cmp] and [Test] only set flags. *)

type shift = Shl | Shr | Sar | Rol | Ror

val shifts : shift array

type unop = Inc | Dec | Neg | Not

val unops : unop array

type shift_amount = Sh_imm of int | Sh_cl
(** Shift count: immediate (masked to 0..31) or the low byte of ECX. *)

type 'a target =
  | Direct of 'a            (** absolute guest address *)
  | Indirect of 'a operand  (** register or memory indirect *)

type 'a insn =
  | Mov of 'a operand * 'a operand      (** 32-bit move, dst then src *)
  | Movb of 'a operand * 'a operand     (** 8-bit move; reg dst keeps upper 24 bits *)
  | Movzxb of reg * 'a operand          (** zero-extend byte into 32-bit reg *)
  | Movsxb of reg * 'a operand          (** sign-extend byte into 32-bit reg *)
  | Lea of reg * 'a mem_operand
  | Alu of alu * 'a operand * 'a operand
  | Unop of unop * 'a operand
  | Shift of shift * 'a operand * shift_amount
  | Imul of reg * 'a operand            (** truncated 32-bit multiply *)
  | Mul of 'a operand                   (** EDX:EAX = EAX * src, unsigned *)
  | Div of 'a operand                   (** unsigned EDX:EAX / src -> EAX, rem EDX *)
  | Idiv of 'a operand
  | Cdq                                 (** sign-extend EAX into EDX *)
  | Push of 'a operand
  | Pop of 'a operand
  | Xchg of reg * reg
  | Setcc of cond * 'a operand          (** 0/1 byte write *)
  | Cmovcc of cond * reg * 'a operand   (** conditional 32-bit move *)
  | Rep_movsb
      (** while ECX<>0: byte \[EDI\] := \[ESI\]; ESI,EDI up; ECX down.
          Forward-only (G86 has no direction flag). *)
  | Rep_stosb
      (** while ECX<>0: byte \[EDI\] := AL; EDI up; ECX down. *)
  | Jmp of 'a target
  | Jcc of cond * 'a                    (** absolute target *)
  | Call of 'a target
  | Ret
  | Int of int                          (** software interrupt (syscall) *)
  | Nop
  | Hlt

type 'a t = 'a insn

val map : ('a -> 'b) -> 'a insn -> 'b insn
(** Map over every immediate/address position. *)

val is_block_end : 'a insn -> bool
(** True for instructions that terminate a translation block: all control
    transfers, [Int], and [Hlt]. *)

(** Assembly names, as the printer writes them and the text assembler
    reads them. *)

val reg_name : reg -> string
val cond_name : cond -> string
val alu_name : alu -> string
val shift_name : shift -> string
val unop_name : unop -> string

val pp_reg : Format.formatter -> reg -> unit
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a insn -> unit
val to_string : int insn -> string
