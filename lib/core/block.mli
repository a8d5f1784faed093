open Vat_host

(** A translated code block: the unit of the code caches.

    A block covers one guest basic block (up to a configured instruction
    budget). Its body is linearized, register-allocated H-ISA code; control
    leaves through the typed terminator. Conditions and indirect targets
    are communicated from body code to terminator through the dedicated
    link register {!term_reg}, which register allocation never touches. *)

val term_reg : Hinsn.reg
(** r30. *)

type term =
  | T_jmp of { target : int }
  | T_jcc of { taken : int; fall : int }
      (** Taken iff {!term_reg} is nonzero at block exit. *)
  | T_jind of { kind : ind_kind }
      (** Guest target address is in {!term_reg}. *)
  | T_call of { target : int; ret : int }
  | T_syscall of { next : int }
  | T_fault of string

and ind_kind = K_jump | K_call of int | K_ret
(** [K_call ret] records the fall-through return address (the return
    predictor uses it at translation time). *)

type t = private {
  guest_addr : int;
  guest_len : int;            (** guest bytes covered *)
  guest_insns : int;
  code : Hinsn.t array;       (** hardware registers only *)
  term : term;
  optimized : bool;
  translation_cycles : int;   (** slave occupancy to produce this block *)
  page_lo : int;
  page_hi : int;              (** guest pages covered, for SMC invalidation *)
  checksum : int;
      (** Content checksum computed at translation time; caches and
          messages carry their own copy of the sum, and every consumer
          verifies it before the block may execute (end-to-end
          integrity). *)
  ops : int array;
      (** [code] compiled for the execution engine, one
          {!Vat_host.Hexec} op word per instruction (layout in
          [hexec.mli]). Computed once, with the checksum, by {!make}, so
          every cache level and every run that shares the block through
          {!Translate.Memo} shares them too. *)
}

val make :
  guest_addr:int -> guest_len:int -> guest_insns:int -> code:Hinsn.t array ->
  term:term -> optimized:bool -> translation_cycles:int -> page_lo:int ->
  page_hi:int -> t
(** The only way to build a block: computes [checksum] and [ops] from
    the content, so neither can disagree with it. Raises
    [Invalid_argument] on an instruction {!Vat_host.Hexec.encode}
    refuses (a register above r31, a [W8s] store, an immediate that does
    not fit) and on a load into r0: the engine writes its register file
    unguarded. *)

val recompute_checksum : t -> int
(** Recompute the sum from the block's content (what a verifier compares
    a stored/transmitted sum against). *)

val size_bytes : t -> int
(** Instruction-memory footprint: 4 bytes per instruction plus an 8-byte
    terminator stub. *)

val direct_successors : t -> (int * [ `Taken | `Fall | `Target | `Ret ]) list
(** Statically known successor guest addresses, labelled for the
    speculation engine's prediction heuristics. *)

val pp : Format.formatter -> t -> unit
