(** Byte-addressable guest physical memory, held as 4 KiB pages.

    Little-endian, fixed size, bounds-checked. Page-granularity store
    generations support self-modifying-code detection: every store bumps the
    generation of the page it touches, and consumers (the interpreter's
    decode cache, the DBT's translated-page registry) compare generations to
    notice that cached code may be stale.

    Pages are copy-on-write. {!create} points every page at one shared
    zero page, {!copy} shares every page with its source, and the first
    store a memory makes to a page it shares copies that page alone. No
    store to one memory is ever visible in another. *)

exception Fault of { addr : int; access : string }

type t

val create : size:int -> t
(** Zero-filled memory of [size] bytes. [size] is rounded up to a whole
    number of pages. *)

val size : t -> int

val copy : t -> t
(** A copy that shares every page with [t] until one of them writes it.
    It costs O(pages), not O(bytes): three arrays of one entry per page
    (4 MiB of memory has 1,024 pages). Afterwards [t] owns none of its
    pages either, so a later store to [t] copies its page too, and
    stores to either side never show through the other.

    Several domains may copy the same [t] at once, as long as none of
    them writes [t] meanwhile (a pristine [Program.t] cloned by parallel
    runs): each copy and [t] take fresh owner ids from an atomic
    counter. *)

val page_size : int
(** 4096 bytes. *)

val read_u8 : t -> int -> int
val read_u32 : t -> int -> int
(** Unsigned 32-bit little-endian load (result in [0, 2^32)). *)

val write_u8 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit

val load_string : t -> at:int -> string -> unit
(** Copy a string into memory. Counts as a store for page generations
    of every page it covers. *)

val read_string : t -> at:int -> len:int -> string

val page_of : int -> int
val page_generation : t -> page:int -> int
(** Monotonic counter bumped by every store touching [page]. A store of
    no bytes (an empty {!load_string}) touches no page. Generation 0
    means no store has touched the page since {!create}, so it is still
    all zero; {!checksum} relies on this. *)

val checksum : t -> int
(** FNV digest of all bytes in address order. It feeds the snapshot
    fingerprint, [Exec.digest] (through {!Interp.state_digest}) and the
    [exec] snapshot section. Its cost is proportional to the number of
    pages ever written: a page of generation 0 folds in as one
    multiply. *)
