(** Named counters and gauges shared across simulation components.

    A [Stats.t] is a flat registry: components bump counters by name and the
    metrics layer reads them out at the end of a run. Counter reads of
    never-bumped names return zero, so probes can be optional, and the
    listings ({!names}, {!to_alist}, {!pp}) skip every counter that reads
    zero: a name is listed once a run has made it nonzero, whether it was
    resolved as a handle at construction or bumped by name. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set_max : t -> string -> int -> unit
(** Keep the running maximum of a gauge. *)

type counter
(** A pre-resolved handle to one named counter. Hot paths resolve the
    name once ({!counter}) at construction time and then {!bump} the cell
    per event — no string hashing on the per-instruction path. Under
    dune's dev profile ([-opaque]) each {!bump} from another module is
    still a function call, not an inlined increment. *)

val counter : t -> string -> counter
(** Resolve (creating if needed) the cell behind [name]. The handle and
    the name alias the same storage: [get t name] sees every {!bump}. *)

val bump : counter -> unit
val bump_by : counter -> int -> unit
val bump_max : counter -> int -> unit
(** As {!set_max} on the handle's name. *)

val counter_value : counter -> int

val get : t -> string -> int
val ratio : t -> string -> string -> float
(** [ratio t num den] = numerator / denominator as a float; 0.0 when the
    denominator is zero. *)

val names : t -> string list
(** The names of the nonzero counters, sorted. *)

val to_alist : t -> (string * int) list
(** The nonzero counters as (name, value) pairs, sorted by name — a
    deterministic serialization order for checkpoints. *)

val pp : Format.formatter -> t -> unit
(** One line per nonzero counter, sorted by name. *)
