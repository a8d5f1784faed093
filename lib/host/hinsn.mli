(** H-ISA: the MIPS-like host tile instruction set.

    Models a Raw tile's compute pipeline: 32 registers ([r0] hardwired to
    zero), three-operand ALU operations, 16-bit-immediate forms, MIPS shift
    semantics (variable counts masked to 5 bits), Raw-style [ext]/[ins]
    bitfield operations (the paper's packed-flags access), and loads/stores
    with base+offset addressing.

    Two macro-instructions, [Mul64] and [Div64], stand in for the soft
    multiply/divide helper routines a real translator would emit for the
    guest's widening EDX:EAX operations; they read and write the pinned
    guest registers directly and carry a fixed multi-cycle cost in the
    timing model (see DESIGN.md).

    Register fields are plain ints. During translation the fields hold
    virtual registers (ids [>= 32]); register allocation renames them into
    the hardware range [0..31]. Branch targets are instruction indexes
    within the enclosing translated block (label ids before
    linearization). *)

type reg = int

(** Register conventions used by the translator. *)

val r0 : reg
(** Hardwired zero. *)

val guest_reg_base : reg
(** r8..r15 hold guest EAX..EDI. *)

val flags_reg : reg
(** r16: the packed guest flags register. *)

val temp_regs : reg list
(** Allocatable temporaries. *)

val first_vreg : reg
(** 32; register ids at or above are virtual. *)

type alu3 =
  | Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Mul | Mulh | Mulhu

type alui =
  | Addi | Andi | Ori | Xori | Slti | Sltiu

type shift = Sll | Srl | Sra

type width = W8 | W8s | W32
(** Load widths: byte zero-extending, byte sign-extending, word. Stores use
    [W8]/[W32]. *)

type brcond = Beq | Bne | Blez | Bgtz | Bltz | Bgez

type t =
  | Alu3 of alu3 * reg * reg * reg            (** rd, rs, rt *)
  | Alui of alui * reg * reg * int            (** rd, rs, imm16 *)
  | Lui of reg * int                          (** rd, imm16 << 16 *)
  | Shifti of shift * reg * reg * int         (** rd, rs, shamt *)
  | Shiftv of shift * reg * reg * reg         (** rd, rs, rcount *)
  | Ext of reg * reg * int * int              (** rd = (rs >> pos) & mask(size) *)
  | Ins of reg * reg * int * int              (** rd[pos+size-1:pos] = rs *)
  | Load of width * reg * reg * int           (** rd, base, offset *)
  | Store of width * reg * reg * int          (** rvalue, base, offset *)
  | Branch of brcond * reg * reg * int        (** rs, rt (ignored for unary), target *)
  | Jump of int                               (** local target *)
  | Mul64 of reg                              (** EDX:EAX = EAX * rs (unsigned) *)
  | Div64 of { divisor : reg; signed : bool } (** EAX,EDX = EDX:EAX / divisor *)
  | Trap of trap * reg
      (** Trap if the register is nonzero (condition precomputed). *)
  | Nop

and trap = Divide_error | Divide_overflow

val iter_regs : def:(reg -> unit) -> use:(reg -> unit) -> t -> unit
(** Apply [def] to each register written, then [use] to each register
    read, each in order, without allocating. [Mul64]/[Div64] write the
    pinned guest EAX then EDX. Reads are in the order of an op word's
    source fields ({!Hexec}): [Ins] reads its destination first, and a
    unary branch reads only its first register. *)

val defs : t -> reg list
(** The registers {!iter_regs} passes to [def]. *)

val uses : t -> reg list
(** The registers {!iter_regs} passes to [use]. *)

val max_reg : t -> reg
(** The largest register field (0 if none): the fields {!map_regs}
    renames. [Mul64]/[Div64]'s implicit EAX/EDX are not fields. *)

val map_regs : (reg -> reg) -> t -> t
(** Rename every register field (used by register allocation). *)

val has_side_effect : t -> bool
(** Stores, traps, branches, jumps, and the macro-ops: instructions DCE must
    never delete. Loads are also kept (they can fault). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
