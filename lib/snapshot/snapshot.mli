(** Deterministic whole-machine checkpoints for the virtual architecture.

    A snapshot is a named bag of binary sections (one per machine
    subsystem: guest architectural state, code-cache residencies, L2D
    banks, manager/slave queues, scheduler position, statistics, recovery
    ledger), each protected by a CRC-32, plus a small header binding the
    snapshot to one specific run: the cycle it was taken at, a
    configuration/program/input/fault-plan fingerprint, and the
    checkpoint interval that produced it.

    The simulator is a pure function of its inputs, so restore works by
    verified deterministic replay: re-execute from cycle 0 under the same
    inputs and check — byte for byte — that every section matches when
    the snapshot cycle is reached (see [Vm.run]'s [restore_from]). The
    sections therefore double as both the restart artifact and the
    integrity oracle. The encoding is self-contained and versioned; a
    single flipped bit anywhere in a saved file is detected at load. *)

(** {1 Binary codecs}

    Compact varint encoding shared by every section producer. Integers
    are zigzag-coded (small magnitudes of either sign stay short);
    strings are length-prefixed. *)

module Wr : sig
  type t

  val create : unit -> t
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val int_list : t -> int list -> unit
  val int_array : t -> int array -> unit
  val contents : t -> string
end

module Rd : sig
  type t

  val of_string : string -> t

  val int : t -> int
  (** @raise Failure on truncated input. *)

  val bool : t -> bool
  val string : t -> string
  val int_list : t -> int list
  val at_end : t -> bool
end

val crc32 : string -> int
(** Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected);
    [crc32 "123456789" = 0xCBF43926]. *)

(** {1 Snapshots} *)

type t

val v : cycle:int -> fingerprint:int -> interval:int ->
  sections:(string * string) list -> t
(** Build a snapshot from raw section payloads. Section names must be
    distinct; order is preserved by {!to_string} and honoured by
    {!equal}. *)

val cycle : t -> int
val fingerprint : t -> int

val interval : t -> int
(** The [checkpoint_every] that produced this snapshot. Restore reuses it
    (ignoring the caller's interval) so the replayed checkpoint chain
    lands on exactly the cycles the original run checkpointed at. *)

val find : t -> string -> string option

val equal : t -> t -> bool

val diff : t -> t -> string list
(** Names of sections whose payloads differ (or that exist on one side
    only), plus pseudo-names ["header:cycle"], ["header:fingerprint"],
    ["header:interval"] for header mismatches. Empty iff {!equal}. *)

val to_string : t -> string
(** Self-contained binary image: magic, header, per-section payload +
    CRC-32, and a whole-image CRC-32 trailer. *)

val of_string : string -> t
(** @raise Failure if the image is truncated, has a bad magic or version,
    or fails any checksum — with a message naming the failing section. *)

val save : t -> string -> unit
(** Atomic: writes to a temporary file in the same directory, then
    renames over the destination.
    @raise Failure ["snapshot: cannot write <path>: <reason>"] if the
    file cannot be written. *)

val load : string -> t
(** @raise Failure as {!of_string}; also
    ["snapshot: cannot read <path>: <reason>"] if the file cannot be
    read (missing, a directory, unreadable). *)
