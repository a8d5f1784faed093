(** Pure H-ISA execution semantics, over pre-decoded op words.

    The single definition of what each host instruction computes. A
    translated block is compiled once ({!encode}) into one int per
    instruction, and everything that runs host code runs that form: the
    DBT runtime-execution engine (which runs stretches of ALU and branch
    words through {!run_straight} and adds the memory system), the plain
    block runner {!run_block} used in translator unit tests, and the
    optimizer's constant folding. All register values are
    unsigned 32-bit ints in [0, 2^32).

    {1 The op word}

    {v
    bits  0–5    opcode (dense; its kind is kinds.(opcode))
    bits  6–10   rd: the register written (r0 when none)
    bits 11–15   rs: first source
    bits 16–20   rt: second source
    bits 21–25   ru: third source
    bits 26–62   imm: signed immediate (37 bits; {!encode} fills 16 at most)
    v}

    The source fields hold {!Hinsn.uses} in order, padded with r0, so a
    word names every register its instruction reads: [Ins] reads its
    destination ([rs] = rd, [rt] = the inserted value), [Mul64] reads EAX
    and the multiplier, and [Div64] reads EAX, EDX and the divisor. A
    scoreboard can therefore gate any word on its three source fields
    alone, with r0 (which never waits) masked out. [Store] has no
    destination: [rs] is the value and [rt] the base. [Mul64]/[Div64]
    write EAX and EDX, which their opcode implies ([rd] is r0).

    The immediate holds the ALU immediate or shift amount, the load/store
    offset, or the branch/jump target; for [Ext]/[Ins] it is
    [pos lor (size lsl 6)].

    Register fields are 5 bits, so a field indexes a 32-entry register
    file without a bounds check. *)

type kind =
  | Alu     (** rd <- {!eval}; [Nop] is an [Alu] word with [rd] = r0 *)
  | Branch  (** to [imm] if {!eval} is nonzero; [Jump] always is *)
  | Trap    (** traps with {!trap} if {!eval} is nonzero *)
  | Mul64
  | Div64   (** both run through {!wide} *)
  | Load of Hinsn.width   (** rd <- mem\[rs + imm\] *)
  | Store of Hinsn.width  (** mem\[rt + imm\] <- rs *)

val encode : Hinsn.t -> int
(** The op word of one instruction. Raises [Invalid_argument] on a
    [W8s] store and on any instruction that does not fit the one 32-bit
    H-ISA word [Block.size_bytes] charges for it, whose fields are:
    - registers r0–r31;
    - 16 bits signed: [Addi]/[Slti] immediates and load/store offsets;
    - 16 bits unsigned: [Andi]/[Ori]/[Xori]/[Sltiu] and [Lui] immediates
      and branch/jump targets;
    - 5 bits: shift amounts and [Ext]/[Ins] position and size.

    Each accepted instruction therefore fits 32 bits: a 6-bit opcode
    (there are fewer than 64), then either at most two 5-bit registers
    and 16 bits, or three registers and at most 11 bits. *)

(** {2 Fields} *)

type opcode

val opcodes : opcode array
(** The numbering: an opcode's number is its first index here. 64
    entries, padded with [Nop]. Do not mutate. *)

val number : opcode -> int
(** The opcode field {!encode} writes for an opcode, in constant time. *)

val kinds : kind array
(** Indexed by the opcode field: 64 entries, so any opcode field is in
    bounds. Opcodes {!encode} never produces read as [Alu] words that
    evaluate to 0. Do not mutate. *)

val opcode_mask : int
val rd_shift : int
val rs_shift : int
val rt_shift : int
val ru_shift : int
val imm_shift : int
(** The layout above, for loops that extract fields inline: under dune's
    dev profile ([-opaque]) a call to an accessor below is a real call. *)

val kind : int -> kind
val rd : int -> Hinsn.reg
val rs : int -> Hinsn.reg
val rt : int -> Hinsn.reg
val ru : int -> Hinsn.reg
val imm : int -> int

(** {2 Evaluation} *)

val eval : int -> int -> int -> int
(** [eval w a b], with [a] and [b] the values of [w]'s [rs] and [rt]:
    the value an [Alu] word writes to [rd], or 1 if a [Branch] word is
    taken or a [Trap] word traps (else 0). Raises [Invalid_argument] on
    other kinds. *)

(** {2 The straight-line loop} *)

type cursor = {
  mutable pc : int;     (** the next word's index in its block *)
  mutable time : int;   (** the local cycle *)
  mutable stall : int;  (** stall cycles summed since the owner last reset it *)
}

type stop =
  | Ended    (** [pc] reached the end of the block *)
  | Pending  (** a source of the word at [pc] is pending *)
  | Other    (** the word at [pc] is a load, store, [Mul64], [Div64] or
                 trap; its sources are ready and its stall is charged *)

val run_straight :
  cursor -> int array -> int array -> int array -> int -> stop
(** [run_straight c ops regs ready_at pending] runs the [Alu] and
    [Branch] words of [ops] from [c.pc] under the timed engine's rules,
    and says why it stopped. [regs] and [ready_at] are register files (at
    least 32 entries, else [Invalid_argument]); bit [r] of [pending] marks
    register [r] as waiting on a reply. For each word:
    - Scoreboard: if a source field other than r0 names a pending
      register, stop with [Pending], charging nothing.
    - Stall: [time] rises to the latest [ready_at] of the three source
      fields, and [stall] grows by the rise. r0 never stalls as long as
      nothing writes [ready_at.(0)].
    - A load, store, [Mul64], [Div64] or trap word then stops the loop
      with [Other], its stall charged and [pc] on it.
    - An [Alu] word takes one cycle: [time + 1], and if [rd] is not r0,
      [regs.(rd)] gets {!eval}'s value and [ready_at.(rd)] the new time.
    - A [Branch] word takes one cycle and moves [pc] to its immediate if
      taken, else to the next word.

    The loop makes no call and allocates nothing per word. It writes
    [c] back once, when it stops; a stretch with nothing to run returns
    at once. *)

val trap : int -> Hinsn.trap
(** Which trap a [Trap] word raises. *)

val wide : int array -> int -> Hinsn.trap option
(** Run a [Mul64] or [Div64] word against a register file (at least 32
    entries): writes EAX and EDX, or leaves them alone and returns the
    trap a [Div64] raises. *)

val eval_alu3 : Hinsn.alu3 -> int -> int -> int
val eval_alui : Hinsn.alui -> int -> int -> int
(** The immediate is applied with MIPS conventions: sign-extended for
    Addi/Slti, zero-extended for the logical ops and Sltiu. *)

val eval_shift : Hinsn.shift -> int -> int -> int
(** Count is masked to 5 bits. *)

val eval_branch : Hinsn.brcond -> int -> int -> bool
(** {!eval} on one operation and its operand values, for constant
    folding. *)

(** {2 The block runner} *)

type mem_access = {
  load : Hinsn.width -> int -> int;
  store : Hinsn.width -> int -> int -> unit;
}

type block_result =
  | Fell_through
  | Trap of Hinsn.trap
  | Out_of_steps

val run_block :
  code:Hinsn.t array -> regs:int array -> mem:mem_access -> fuel:int ->
  block_result
(** Encode a linearized block and execute it from index 0 until control
    falls off the end, against a 32-entry register file whose [regs.(0)]
    is zero (it stays zero: writes to r0 are dropped). Used by translator
    tests; the timed engine in [vat.core] runs the same words through
    {!run_straight}. Raises [Invalid_argument] as {!encode} does. *)
