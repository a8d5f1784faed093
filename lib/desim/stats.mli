(** Named counters and gauges shared across simulation components.

    A [Stats.t] is a flat registry: components bump counters by name and the
    metrics layer reads them out at the end of a run. Counter reads of
    never-bumped names return zero, so probes can be optional. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set_max : t -> string -> int -> unit
(** Keep the running maximum of a gauge. *)

type counter
(** A pre-resolved handle to one named counter. Hot paths resolve the
    name once ({!counter}) at construction time and then {!bump} a bare
    cell per event — no string hashing on the per-instruction path. *)

val counter : t -> string -> counter
(** Resolve (creating if needed) the cell behind [name]. The handle and
    the name alias the same storage: [get t name] sees every {!bump}. *)

val bump : counter -> unit
val bump_by : counter -> int -> unit
val counter_value : counter -> int

type lazy_counter
(** A handle to one named counter that resolves its cell at its first
    use, not at construction. A name therefore appears in {!names} (and
    in checkpoints, which list names) exactly when {!incr}, {!add} or
    {!set_max} by name would have added it, while every later use skips
    the string hashing. For counters that a run may never touch. *)

val lazy_counter : t -> string -> lazy_counter
val incr_lazy : lazy_counter -> unit
val add_lazy : lazy_counter -> int -> unit
val set_max_lazy : lazy_counter -> int -> unit
(** As {!incr}, {!add} and {!set_max} on the handle's name. *)

val get : t -> string -> int
val ratio : t -> string -> string -> float
(** [ratio t num den] = numerator / denominator as a float; 0.0 when the
    denominator is zero. *)

val names : t -> string list
(** All counter names seen so far, sorted. *)

val to_alist : t -> (string * int) list
(** All counters as (name, value) pairs, sorted by name — a deterministic
    serialization order for checkpoints. *)

val pp : Format.formatter -> t -> unit
