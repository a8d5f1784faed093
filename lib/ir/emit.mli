open Vat_host

(** Instruction emitter used by the translator's code generator: fresh
    virtual registers, fresh labels, and constant materialization. *)

type t

val create : unit -> t

val vreg : t -> Hinsn.reg
(** Fresh virtual register. *)

val lab : t -> int
(** Fresh label id. *)

val ins : t -> Hinsn.t -> unit
val place : t -> int -> unit
(** Bind a label at the current position. *)

val li_reg : t -> int -> Hinsn.reg
(** Load a 32-bit constant into a fresh vreg with the shortest sequence
    (Addi/Ori/Lui or Lui+Ori), returning it. Zero returns r0 directly. *)

val addi_big : t -> dst:Hinsn.reg -> src:Hinsn.reg -> int -> unit
(** dst = src + constant, handling constants that do not fit imm16. *)

val mov : t -> dst:Hinsn.reg -> src:Hinsn.reg -> unit

val items : t -> Lblock.t
(** Everything emitted so far, in order. *)
