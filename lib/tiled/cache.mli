(** Set-associative write-back cache timing model.

    This is a tags-only model: data values always live in the functional
    guest memory, while the cache decides hit/miss/writeback {e timing}.
    LRU replacement, write-allocate. Used for the execution tile's L1 data
    cache, the L2 data-cache banks, and the Pentium III reference model's
    hierarchy. *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t
(** [size_bytes] must be a multiple of [ways * line_bytes]. *)

(** Outcome of the per-access parity check (see {!corrupt_line}):
    [Corrected] means a corrupt {e clean} line was detected and scrubbed —
    the caller charges a DRAM refetch; [Uncorrectable] means a corrupt
    {e dirty} line was touched or evicted — the only copy of its data is
    gone and the caller must fail loudly, never return a silent wrong
    value. *)
type parity = Parity_ok | Corrected | Uncorrectable

type result = {
  hit : bool;
  writeback : int option;
      (** Line-aligned address of a dirty line evicted by this access. *)
  parity : parity;
}

val access : t -> addr:int -> write:bool -> result
(** Look up (and on miss, allocate) the line containing [addr]. *)

val corrupt_line :
  ?prefer_dirty:bool ->
  t -> salt:int -> allow_dirty:bool -> [ `Clean | `Dirty | `Absorbed ]
(** Storage-corruption injection: flip bits in one resident line, chosen
    deterministically from [salt]. Clean lines are preferred (their loss
    is recoverable); a dirty line is only corrupted when [allow_dirty],
    and [`Absorbed] means no eligible line was resident (the particle hit
    empty silicon). [prefer_dirty] (with [allow_dirty]) inverts the
    preference — rollback-recovery runs use it so the uncorrectable
    dirty-loss path is actually exercised. *)

val state_digest : t -> int
(** Hash of the complete mutable state (tags, LRU, dirty/corrupt bits,
    counters); equal digests mean indistinguishable caches. A checkpoint
    section ingredient. *)

val parity_events : t -> int
(** Corrupt clean lines detected and scrubbed by accesses so far. *)

val probe : t -> addr:int -> bool
(** Hit test with no state change. *)

val flush : t -> int
(** Invalidate everything; returns the number of dirty lines that needed
    writing back. *)

val dirty_lines : t -> int
