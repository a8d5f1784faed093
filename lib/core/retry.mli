open Vat_desim

(** The deadline-and-retry loop of every fault-tolerant request: code
    fills, slave installs awaiting the manager's ack, and data accesses. *)

type ('o, 'r) t = {
  send : 'o -> 'r -> unit;
  pending : 'o -> 'r -> bool;
  expire : 'o -> 'r -> bool -> unit;
      (** Runs at each deadline that finds the request pending; the flag
          says whether it is sent again or handed to [give_up]. *)
  give_up : 'o -> 'r -> unit;
}
(** One path's fixed parts, for requests ['r] of an owner ['o]. *)

val start : ('o, 'r) t -> Event_queue.t -> 'o -> 'r -> deadline:int -> unit
(** Send [r] and arm its deadline. Each deadline that finds [r] pending
    sends it again under a deadline {!Config.backoff_mult} times longer,
    up to {!Config.max_retries} times, and then gives up. A request that
    is no longer pending is never sent again. *)
