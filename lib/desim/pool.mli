(** Domain-based worker pool for independent deterministic tasks.

    Results always come back in submission order, so a parallel sweep is
    observationally identical to the sequential loop it replaces. Tasks
    must not share mutable state (each simulation cell owns its event
    queue, stats, RNG and memory image; see DESIGN.md, "Performance
    engineering"). *)

val cpu_count : unit -> int
(** [Domain.recommended_domain_count ()]: the default for [~jobs]. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs tasks] evaluates every task, using up to [jobs] domains
    (the calling domain counts as one; [jobs <= 1] runs sequentially with
    no domains spawned). Result [i] is task [i]'s value. If any task
    raised, the exception of the lowest-indexed failing task is re-raised
    — after all tasks finished, so no work is silently dropped. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] is {!run} over [fun () -> f items.(i)], as an
    array. *)
