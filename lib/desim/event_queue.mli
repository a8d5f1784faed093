(** Deterministic discrete-event scheduler.

    Events are callbacks scheduled at absolute cycle times. Events scheduled
    for the same cycle fire in insertion order, which keeps whole-system
    simulations reproducible run to run. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulation time in cycles. *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** [schedule q ~at f] runs [f] when simulated time reaches [at]. [at] must
    be [>= now q]; scheduling in the past raises [Invalid_argument]. *)

val after : t -> delay:int -> (unit -> unit) -> unit
(** [after q ~delay f] = [schedule q ~at:(now q + delay) f]. *)

val pending : t -> int
(** Number of events not yet fired. *)

val next_seq : t -> int
(** Total events ever scheduled (the next insertion-order tiebreak). A
    deterministic scheduler cursor: two runs that have scheduled the same
    event sequence agree on it, so it belongs in a checkpoint. *)

val set_probe : t -> (now:int -> pending:int -> unit) -> unit
(** Install an observation hook called on every {!step}, after the clock
    advances and before the event's action runs, with the new time and
    the number of events still pending. The probe must only observe (a
    tracer's sampler, for instance): scheduling or mutating simulation
    state from it would perturb the run it is watching. At most one probe
    is installed; a second call replaces the first. *)

val clear_probe : t -> unit

val step : t -> bool
(** Fire the next event, advancing time to it. Returns [false] when the
    queue is empty. *)

val run_until : t -> limit:int -> unit
(** Fire events in order until the queue drains or the next event would be
    past [limit]. Time is left at the last fired event (or [limit] if the
    queue drained earlier than [limit] — time never moves backwards). *)

val run : t -> unit
(** Fire events until the queue is empty. *)

type stop = Finished | Cycle_limit | Deadlock

val drive : t -> max_cycles:int -> finished:(unit -> bool) -> stop
(** The whole-system drive loop. Before each event it checks, in order:
    [finished ()] ([Finished]), then whether the clock has passed
    [max_cycles] ([Cycle_limit]); an empty queue ends it with
    [Deadlock]. Allocates nothing per event. *)
