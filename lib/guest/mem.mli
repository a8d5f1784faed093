(** Flat byte-addressable guest physical memory.

    Little-endian, fixed size, bounds-checked. Page-granularity store
    generations support self-modifying-code detection: every store bumps the
    generation of the page it touches, and consumers (the interpreter's
    decode cache, the DBT's translated-page registry) compare generations to
    notice that cached code may be stale. *)

exception Fault of { addr : int; access : string }

type t

val create : size:int -> t
(** Zero-filled memory of [size] bytes. [size] is rounded up to a whole
    number of pages. *)

val size : t -> int

val copy : t -> t
(** Deep copy: fresh backing store and page generations. Writes to either
    copy never alias the other. *)

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
