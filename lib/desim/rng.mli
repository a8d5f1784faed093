(** Deterministic pseudo-random number generator (splitmix64).

    Workload data and property-test inputs are generated from explicit seeds
    so every simulation run is exactly reproducible. *)

type t

val create : seed:int -> t
val next : t -> int
(** Uniform in [0, 2^62). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> bool
val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
