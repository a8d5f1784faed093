(** The three-level code cache (data structures; timing lives in the
    engine and the service tiles).

    - {!L1}: the execution tile's instruction memory. Tight packing with
      whole-cache flush when full, exactly the paper's algorithm; chaining
      links live here because only L1-resident code has a known absolute
      position.
    - {!L15}: a banked on-chip victim store of translated blocks (one or
      two tiles); LRU within each bank; no chaining.
    - {!L2}: the manager tile's main-memory code cache (paper: 105 MB in
      off-chip DRAM), plus the translated-page registry used to detect
      self-modifying code.

    Every resident block carries its own mutable copy of the content
    checksum (initialized from {!Block.checksum} at install). Soft-error
    injection tampers the stored sum — blocks themselves are immutable and
    shared — and consumers verify the stored sum against a recomputation
    before the block may run. The [corrupt_one ~salt] entries pick a
    deterministic victim (independent of hashtable iteration order) and
    flip one bit of its stored sum; they return [false] when the structure
    is empty and the fault is absorbed. *)

module L1 : sig
  type entry = {
    block : Block.t;
    use_masks : int array;
    def_masks : int array;
        (** Per-instruction {!Vat_host.Hinsn.use_mask}/[def_mask], computed
            once at install so the engine's scoreboard does [land] tests
            per step instead of allocating register lists. *)
    mutable stored_sum : int;
        (** This residency's copy of the block checksum; verified against
            {!Block.checksum} on entry when fault tolerance is armed. *)
    mutable chain_taken : entry option;
    mutable chain_fall : entry option;
  }

  type t

  val create : capacity:int -> t
  val find : t -> int -> entry option
  val install : t -> Block.t -> entry
  (** Flushes everything first if the block does not fit. *)

  val corrupt_one : t -> salt:int -> bool
  val flush : t -> unit
  val used_bytes : t -> int
  val flushes : t -> int

  val state_digest : t -> int
  (** Iteration-order-independent hash of residencies (address, stored
      sum, chain shape) and counters — the L1 checkpoint ingredient. *)
end

module L15 : sig
  type t

  val create : capacity:int -> t

  val find : t -> int -> (Block.t * int) option
  (** The resident block and its stored sum. *)

  val install : ?sum:int -> t -> Block.t -> unit
  (** Evicts least-recently-used blocks until the new one fits. [sum]
      defaults to the block's translation-time checksum; a corrupted
      delivery installs its (bad) transmitted sum, to be caught on the
      next lookup. *)

  val remove : t -> int -> unit
  val corrupt_one : t -> salt:int -> bool
  val drop_page : t -> int -> unit

  val state_digest : t -> int
  (** As {!L1.state_digest}, over residencies + LRU stamps + counters. *)
end

module L2 : sig
  type t

  val create : capacity:int -> t

  val find : t -> int -> (Block.t * int) option
  (** The resident block and its stored sum. *)

  val install : ?sum:int -> t -> Block.t -> unit
  val remove : t -> int -> unit
  val corrupt_one : t -> salt:int -> bool
  val blocks : t -> int
  val used_bytes : t -> int

  val page_has_code : t -> page:int -> bool
  (** True when translated blocks cover the guest page — the check behind
      self-modifying-code detection. *)

  val invalidate_page : t -> page:int -> int
  (** Drop all blocks overlapping the page; returns how many. *)

  val state_digest : t -> int
  (** As {!L1.state_digest}, over residencies + the page registry. *)
end
