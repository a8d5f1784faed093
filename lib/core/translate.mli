(** The translator: guest basic block -> optimized H-ISA block.

    Mirrors the paper's translation-slave pipeline: variable-length guest
    decode, lowering through a MIPS-like IR with the guest registers pinned
    in r8..r15 and the packed flags word in r16, dead-flag elimination,
    the standard optimization passes (when enabled), load hoisting,
    register allocation, and linearization.

    Decode failures and unmapped fetches yield a block whose terminator is
    [T_fault], so executing the address reproduces the guest fault. *)

val guest_pin : Vat_guest.Insn.reg -> Vat_host.Hinsn.reg
(** Hardware register holding a guest register (r8 + index). *)

val translate :
  Config.t -> fetch:(int -> int) -> guest_addr:int -> Block.t
(** [fetch] reads one guest code byte (may raise [Vat_guest.Mem.Fault]). *)

(** Keyed translation memo: reuse blocks across runs over the same guest
    image. Translation is a pure function of (guest bytes, the handful of
    config knobs the translator reads), so a memo entry keyed on
    (address, knobs) and guarded by the generations of the guest pages
    the translator read is sound: a hit returns the exact block a fresh
    translation would have produced, including its modelled
    [translation_cycles]. A memo must only be shared between runs of the
    {e same} guest program (bench keys memos per benchmark); it may be
    shared across domains — the tables are mutex-guarded and entries are
    immutable. It holds one address-keyed table per triple of those
    knobs, and a hit returns the stored pair without allocating. *)
module Memo : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
end

val translate_memo :
  ?memo:Memo.t ->
  Config.t ->
  fetch:(int -> int) ->
  page_gen:(page:int -> int) ->
  guest_addr:int ->
  Block.t * (int * int) list
(** Like {!translate}, additionally returning the (page, generation) list
    of the guest pages the block covers — the staleness witness the
    manager checks at install time. Without [?memo] this just computes
    the pair; with a memo it first revalidates and reuses a cached
    block. *)

