open Vat_desim

(** A tile acting as a serialized service center.

    Requests arrive (after their network latency), queue FIFO, and are
    served one at a time; the handler returns the service occupancy in
    cycles and an action to run at completion (typically sending a reply).
    This one-at-a-time discipline is what creates congestion at shared
    tiles — the paper's central observation about the L2 code-cache
    manager tile. *)

type 'req t

val create :
  ?trace:Vat_trace.Trace.t ->
  ?on_reject:('req -> unit) ->
  ?on_corrupt:('req -> 'req) ->
  Event_queue.t ->
  track:string ->
  serve:('req -> int * (unit -> unit)) ->
  'req t
(** [serve req] returns [(occupancy_cycles, on_complete)].

    The service records its own timeline on the trace track named
    [track] (default recorder {!Vat_trace.Trace.disabled}, which records
    nothing): a [Msg_recv] at each arrival (arg = queue length after
    enqueue), a [Serve_begin] when a request enters service (arg = queue
    length) and a [Serve_end] at completion (arg = occupancy).

    [on_reject] is called (at arrival time) for each request arriving at
    a failed service; it lets the owner re-route traffic to surviving
    tiles. [on_corrupt] says how a request hit by [Corrupt_payload]
    manifests: it returns the bit-flipped version of the message
    (typically tagged so a downstream checksum verification fails), so
    corruption stays {e detectable}, never silently absorbed. Without
    it the garbled request is undecodable and lost. *)

val submit : 'req t -> delay:int -> 'req -> unit
(** Deliver a request after [delay] cycles (its network latency). *)

val queue_length : _ t -> int
(** Requests waiting or in service right now. *)

val busy_cycles : _ t -> int
(** Total cycles spent serving (utilization numerator). *)

val served : _ t -> int

val capture : _ t -> int list
(** Every mutable scalar of the service (queue length, in-service and
    paused flags, busy/served/dropped/corrupted/duplicated counters, fault
    budgets, slow-down state, waiter count, queue high-water mark) in a
    fixed order — the service's contribution to a checkpoint section.
    Pure observation: calling it never perturbs timing. *)

val drain_then : _ t -> (unit -> unit) -> unit
(** Run an action once the service is idle with an empty queue (used by
    reconfiguration to let a tile finish its current work before it
    changes role). Fires immediately if already idle. *)

val set_paused : _ t -> bool -> unit
(** A paused service accepts and queues requests but does not start
    serving new ones (in-flight service completes). Used while a tile's
    role is being morphed. *)

(** {2 Fault state}

    A service never raises on a fault — failure manifests to callers as
    silence (a reply that does not arrive), which upper layers detect via
    deadlines and a watchdog. *)

val fail : 'req t -> 'req list
(** Fail-stop: permanently kill the tile. Queued requests are dropped and
    returned (so a caller can re-route them); a request in service is
    abandoned mid-flight — its reply is never sent; future arrivals are
    rejected. *)

val failed : _ t -> bool

val inject : _ t -> Fault.kind -> unit
(** Apply a message-level fault. [Slow] multiplies service occupancy by
    [factor] for [cycles] cycles ([factor <= 1] restores nominal speed).
    The counted kinds hit the next [n] arrivals: [Drop_requests] loses
    them; [Corrupt_payload] passes them through the owner's [on_corrupt]
    transformer (see {!create}), or, without one, loses them as
    undecodable; [Duplicate_delivery] delivers them twice, so the owner's
    handler must be idempotent.
    @raise Invalid_argument on [Fail_stop] (use {!fail}) and
    [Corrupt_storage] (a service stores nothing). *)

val dropped : _ t -> int
(** Total requests lost to faults (queued at fail-stop, abandoned in
    service, rejected after failure, or transiently dropped). *)

val corrupted : _ t -> int
(** Requests hit by an injected [Corrupt_payload] so far. *)

val duplicated : _ t -> int
(** Requests redelivered by an injected [Duplicate_delivery] so far. *)

val record_totals : Stats.t -> hwm:string -> _ t list -> unit
(** Once, at the end of a run: set the gauge [hwm] to the services'
    highest queue length (measured at each arrival, tracked
    unconditionally), and add their lost, garbled and redelivered
    requests to ["fault.dropped_requests"], ["corrupt.messages"] and
    ["corrupt.duplicated"]. *)
