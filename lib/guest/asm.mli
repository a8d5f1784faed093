(** Two-pass G86 assembler with symbolic labels, plus an instruction-builder
    DSL used by the synthetic workloads.

    Because every G86 encoding has a value-independent length, layout is
    computed in a single sizing pass and symbols are resolved in a second
    pass; there is no relaxation fixpoint. *)

type expr =
  | Const of int
  | Sym of string
  | Sym_off of string * int  (** symbol + byte offset *)

type item =
  | Ins of expr Insn.t
  | Label of string
  | Byte of int
  | Word of expr           (** 32-bit little-endian datum *)
  | Ascii of string
  | Space of int           (** zero-filled bytes *)
  | Align of int           (** pad with zeros to a multiple *)

exception Error of string
(** Duplicate label, undefined symbol, or bad directive argument. *)

type result = {
  image : string;
  origin : int;
  symbols : (string, int) Hashtbl.t;
}

val assemble : origin:int -> item list -> result
val lookup : result -> string -> int
(** Raises [Error] for unknown symbols. *)

(** Instruction builders. Designed to be [open]ed locally when writing
    guest programs: registers are exposed as values, operands built with
    [r]/[i]/[m], and each mnemonic returns an {!item}. *)
module Dsl : sig
  val eax : Insn.reg
  val ecx : Insn.reg
  val edx : Insn.reg
  val ebx : Insn.reg
  val esp : Insn.reg
  val ebp : Insn.reg
  val esi : Insn.reg
  val edi : Insn.reg

  val r : Insn.reg -> expr Insn.operand
  val i : int -> expr Insn.operand
  val isym : ?off:int -> string -> expr Insn.operand
  (** Immediate holding a symbol's address (plus offset). *)

  val m :
    ?base:Insn.reg ->
    ?index:Insn.reg * Insn.scale ->
    ?disp:int ->
    ?sym:string ->
    unit ->
    expr Insn.operand
  (** Memory operand [\[base + index*scale + disp (+ sym)\]]. Giving both
      [disp] and [sym] yields [sym + disp]. *)

  val mb : Insn.reg -> expr Insn.operand
  (** [\[reg\]] *)

  val mbd : Insn.reg -> int -> expr Insn.operand
  (** [\[reg + disp\]] *)

  val msym : ?off:int -> string -> expr Insn.operand
  (** [\[sym + off\]] *)

  val mov : expr Insn.operand -> expr Insn.operand -> item
  val movb : expr Insn.operand -> expr Insn.operand -> item
  val movzxb : Insn.reg -> expr Insn.operand -> item
  val movsxb : Insn.reg -> expr Insn.operand -> item
  val lea : Insn.reg -> expr Insn.operand -> item
  (** The operand must be a memory operand. *)

  val add : expr Insn.operand -> expr Insn.operand -> item
  val adc : expr Insn.operand -> expr Insn.operand -> item
  val sub : expr Insn.operand -> expr Insn.operand -> item
  val sbb : expr Insn.operand -> expr Insn.operand -> item
  val and_ : expr Insn.operand -> expr Insn.operand -> item
  val or_ : expr Insn.operand -> expr Insn.operand -> item
  val xor : expr Insn.operand -> expr Insn.operand -> item
  val cmp : expr Insn.operand -> expr Insn.operand -> item
  val test : expr Insn.operand -> expr Insn.operand -> item
  val inc : expr Insn.operand -> item
  val dec : expr Insn.operand -> item
  val neg : expr Insn.operand -> item
  val not_ : expr Insn.operand -> item
  val shl : expr Insn.operand -> int -> item
  val shr : expr Insn.operand -> int -> item
  val sar : expr Insn.operand -> int -> item
  val rol : expr Insn.operand -> int -> item
  val ror : expr Insn.operand -> int -> item
  val shl_cl : expr Insn.operand -> item
  val shr_cl : expr Insn.operand -> item
  val sar_cl : expr Insn.operand -> item
  val imul : Insn.reg -> expr Insn.operand -> item
  val mul : expr Insn.operand -> item
  val div : expr Insn.operand -> item
  val idiv : expr Insn.operand -> item
  val cdq : item
  val push : expr Insn.operand -> item
  val pop : expr Insn.operand -> item
  val xchg : Insn.reg -> Insn.reg -> item
  val setcc : Insn.cond -> expr Insn.operand -> item
  val cmovcc : Insn.cond -> Insn.reg -> expr Insn.operand -> item
  val rep_movsb : item
  val rep_stosb : item
  val jmp : string -> item
  val jmpi : expr Insn.operand -> item
  val jcc : Insn.cond -> string -> item
  val je : string -> item
  val jne : string -> item
  val jl : string -> item
  val jle : string -> item
  val jg : string -> item
  val jge : string -> item
  val jb : string -> item
  val jbe : string -> item
  val ja : string -> item
  val jae : string -> item
  val js : string -> item
  val jns : string -> item
  val call : string -> item
  val calli : expr Insn.operand -> item
  val ret : item
  val int_ : int -> item
  val nop : item
  val hlt : item
  val label : string -> item

  val sys_exit_code : expr Insn.operand -> item list
  (** exit(status): loads EAX/EBX and raises the syscall interrupt. *)

  val sys_write_buf : buf:string -> len:expr Insn.operand -> item list
  (** write(1, sym buf, len). *)
end
