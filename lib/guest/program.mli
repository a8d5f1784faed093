(** A loaded guest program: memory image, entry point, stack, break, and the
    guest page table the DBT's MMU tile walks.

    The guest runs with paging on: guest virtual pages map to guest physical
    frames through an explicit page table. The mapping is the identity (as
    for a statically linked flat binary), but it is a real table the MMU
    tile must consult, which is what gives TLB misses a cost. *)

type t = {
  mem : Mem.t;
  entry : int;
  code_start : int;
  code_size : int;
  initial_esp : int;
  brk0 : int;
  page_table : int array;  (** virtual page -> physical frame *)
  symbols : (string, int) Hashtbl.t;
}

val default_origin : int
(** 0x1000 — the first mapped code page. *)

val of_asm : ?mem_size:int -> ?origin:int -> Asm.item list -> t
(** Assemble and load. The image is placed at [origin]; the stack starts at
    the top of memory, and the program break just past the image. Execution
    enters at the symbol ["start"] if defined, else at [origin].
    [mem_size] defaults to 4 MiB. *)

val clone : t -> t
(** A pristine copy whose memory image and page table do not alias [t]:
    running one clone never dirties another. Rollback-recovery replays
    each attempt against a fresh clone so stores from an abandoned
    attempt cannot leak into the next. It costs O(pages): the memory is
    a {!Mem.copy}, whose pages stay shared until written, and the page
    table is copied. Parallel runs may clone one [t] from several
    domains at once. The symbol table is shared (read-only after
    assembly). *)

val symbol : t -> string -> int
(** Raises [Asm.Error] for unknown symbols. *)
