(** Reference G86 interpreter.

    Executes guest programs directly; this is the semantic oracle the
    translated code is checked against, and the execution substrate of the
    Pentium III reference timing model. A decoded-instruction cache keeps
    it fast: direct-mapped on a hash of the address, held flat so that a
    hit allocates nothing, and checked against the generation of every
    page the instruction covers, so it stays correct under
    self-modifying code, including a store to the second page of an
    instruction that straddles a page boundary. *)

type outcome =
  | Exited of int       (** guest called exit *)
  | Out_of_fuel
  | Fault of string     (** divide error, memory fault, bad opcode, hlt *)

type t

val create : ?input:string -> Program.t -> t

val reg : t -> Insn.reg -> int
val set_reg : t -> Insn.reg -> int -> unit
val eip : t -> int
val flags : t -> int
val instret : t -> int
(** Instructions retired so far. *)

val output : t -> string
(** Bytes the guest has written via the write syscall. *)

val step : t -> outcome option
(** Execute one instruction; [Some outcome] when execution ends. *)

val run : fuel:int -> t -> outcome
(** Step until exit, fault, or [fuel] instructions. *)

val observe : t -> (int Insn.t -> unit) -> unit
(** Install a hook called with each instruction before it executes (used by
    the PIII timing model and by profilers). *)

val digest : t -> int
(** Hash of registers, flags, output, and full memory — used to compare a
    finished interpreter run against a finished DBT run. *)

val state_digest :
  Mem.t -> reg:(int -> int) -> flags:int -> output:string -> int
(** The guest-state digest both executors report: the memory checksum,
    then guest registers 0..7 ([reg i], in {!Insn.reg_index} order), the
    flags and the output bytes, mixed in that order. *)
