open Vat_desim
open Vat_guest

(** Shared builders for the SpecInt-shaped synthetic workloads.

    Each benchmark is a deterministic guest program whose *architectural
    behaviour* is calibrated to the characteristic that drives the
    corresponding SpecInt 2000 benchmark in the paper's figures:
    instruction working-set size, data-memory intensity, and
    indirect-branch content. Programs always terminate via the exit
    syscall with a checksum-derived status, data lives on its own pages,
    and divides are guarded — so every workload is also a differential
    test of the translator. *)

val seeded : string -> Rng.t
(** Stable RNG from a benchmark name. *)

val fill_data : Rng.t -> bytes:int -> string
(** Deterministic pseudo-random data blob. *)

val arith_body :
  ?regs:Insn.reg array -> Rng.t -> insns:int -> mem_span:int -> Asm.item list
(** Straight-line integer work on the registers in [regs] (default
    EAX/ECX/EDX/EBX/EDI); when [mem_span] is positive, roughly a third of
    the instructions touch [\[ESI + disp\]] with [disp < mem_span]. Never
    touches ESI/EBP/ESP or any register outside [regs], never faults. *)

val fun_farm :
  Rng.t -> prefix:string -> count:int -> insns:int -> mem_span:int ->
  string list * Asm.item list
(** [count] distinct functions (names returned) — the code-working-set
    inflater behind the large-footprint benchmarks. *)

val call_all : string list -> Asm.item list

val jump_table : name:string -> string list -> Asm.item list
(** Data directive: a table of function addresses. *)

val counted_loop :
  label_prefix:string -> iters:int -> Asm.item list -> Asm.item list
(** [mov ebp, iters; L: body; dec ebp; jne L]. The body must preserve
    EBP. *)

val prologue : Asm.item list
(** [start:] followed by ESI = data base and zeroed work registers. *)

val init_phase : Rng.t -> funs:int -> insns:int -> Asm.item list * Asm.item list
(** A one-shot initialization phase: [funs] functions executed exactly
    once at program start (returns [calls, bodies]). Real programs spend
    their opening phase executing setup code once — this is what makes
    the translator-heavy machine configuration valuable early in a run
    and the memory-heavy one valuable later (the paper's motivation for
    dynamic reconfiguration). *)

val epilogue_checksum : Asm.item list
(** Fold EAX/EBX/ECX/EDX into an exit status and exit. *)

val data_section : string -> Asm.item list
(** Page-aligned ["data"] label plus the blob. *)
