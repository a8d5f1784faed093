open Vat_desim

module Tr = Vat_trace.Trace

type 'req t = {
  q : Event_queue.t;
  serve : 'req -> int;
  complete : 'req -> unit;
  (* Pending requests, FIFO: [len] of them from [head] on, wrapping
     round [ring]. While [in_service], the request in service is still
     at [head] and counts in [len]; [end_service] pops it. The ring is
     built at the first arrival (a service has no ['req] to fill it with
     before then) and doubles when full. *)
  mutable ring : 'req array;
  mutable head : int;
  mutable len : int;
  mutable in_service : bool;
  (* The occupancy of the request in service. One request is served at a
     time, so the completion event is always [end_event], a closure
     [create] builds once. *)
  mutable occupancy : int;
  mutable end_event : unit -> unit;
  mutable paused : bool;
  mutable busy_cycles : int;
  mutable served : int;
  mutable waiters : (unit -> unit) list;
  mutable failed : bool;
  mutable slow_factor : int;
  mutable slow_until : int;
  mutable drop_budget : int;
  mutable dropped : int;
  mutable corrupt_budget : int;
  mutable corrupted : int;
  mutable dup_budget : int;
  mutable duplicated : int;
  on_reject : ('req -> unit) option;
  on_corrupt : ('req -> 'req) option;
  mutable max_queue : int;
  (* Trace probes: bound to the disabled recorder by default, so an
     untraced service pays one dead branch per event (see
     Vat_trace.Trace). *)
  pr_recv : Tr.emitter;
  pr_start : Tr.emitter;
  pr_stop : Tr.emitter;
}

let initial_capacity = 8

(* Requests waiting, not counting the one in service. *)
let waiting t = if t.in_service then t.len - 1 else t.len

(* The ring index [i] slots past the head, for [i <= len]. *)
let slot t i =
  let j = t.head + i in
  if j >= Array.length t.ring then j - Array.length t.ring else j

let push t req =
  if t.len = Array.length t.ring then begin
    let ring = Array.make (max initial_capacity (2 * t.len)) req in
    for i = 0 to t.len - 1 do
      ring.(i) <- t.ring.(slot t i)
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.(slot t t.len) <- req;
  t.len <- t.len + 1

let pop t =
  let req = t.ring.(t.head) in
  t.head <- slot t 1;
  t.len <- t.len - 1;
  req

(* "Idle" for drain purposes: nothing in service, and nothing startable
   (a paused service with queued work counts as drained — the queue will
   resume after the role change). *)
let idle t = (not t.in_service) && (t.paused || t.len = 0)

let notify_if_idle t =
  if idle t && t.waiters <> [] then begin
    let ws = List.rev t.waiters in
    t.waiters <- [];
    List.iter (fun w -> w ()) ws
  end

let rec start_next t =
  if (not t.in_service) && (not t.paused) && (not t.failed) && t.len > 0
  then begin
    let occupancy = t.serve t.ring.(t.head) in
    let occupancy =
      if t.slow_factor > 1 && Event_queue.now t.q < t.slow_until then
        occupancy * t.slow_factor
      else occupancy
    in
    t.in_service <- true;
    t.occupancy <- occupancy;
    t.busy_cycles <- t.busy_cycles + occupancy;
    Tr.emit t.pr_start ~cycle:(Event_queue.now t.q) ~arg:t.len;
    Event_queue.after t.q ~delay:(max 1 occupancy) t.end_event
  end

and end_service t =
  let req = pop t in
  t.in_service <- false;
  Tr.emit t.pr_stop ~cycle:(Event_queue.now t.q) ~arg:t.occupancy;
  if t.failed then begin
    (* The tile died mid-service: the reply is never sent. *)
    t.dropped <- t.dropped + 1;
    notify_if_idle t
  end
  else begin
    t.served <- t.served + 1;
    t.complete req;
    start_next t;
    notify_if_idle t
  end

let create ?(trace = Tr.disabled) ?on_reject ?on_corrupt q ~track ~serve
    ~complete =
  let track = Tr.track trace track in
  let t =
    { q;
      serve;
      complete;
      ring = [||];
      head = 0;
      len = 0;
      in_service = false;
      occupancy = 0;
      end_event = ignore;
      paused = false;
      busy_cycles = 0;
      served = 0;
      waiters = [];
      failed = false;
      slow_factor = 1;
      slow_until = 0;
      drop_budget = 0;
      dropped = 0;
      corrupt_budget = 0;
      corrupted = 0;
      dup_budget = 0;
      duplicated = 0;
      on_reject;
      on_corrupt;
      max_queue = 0;
      pr_recv = Tr.emitter trace ~track Tr.Msg_recv;
      pr_start = Tr.emitter trace ~track Tr.Serve_begin;
      pr_stop = Tr.emitter trace ~track Tr.Serve_end }
  in
  t.end_event <- (fun () -> end_service t);
  t

let arrive t req =
  push t req;
  if t.dup_budget > 0 then begin
    (* The interconnect redelivers the message; receivers must treat the
       copy idempotently. *)
    t.dup_budget <- t.dup_budget - 1;
    t.duplicated <- t.duplicated + 1;
    push t req
  end;
  if t.len > t.max_queue then t.max_queue <- t.len;
  Tr.emit t.pr_recv ~cycle:(Event_queue.now t.q) ~arg:t.len;
  start_next t

let submit t ~delay req =
  Event_queue.after t.q ~delay:(max 0 delay) (fun () ->
      if t.failed then begin
        t.dropped <- t.dropped + 1;
        match t.on_reject with Some f -> f req | None -> ()
      end
      else if t.drop_budget > 0 then begin
        (* Transient loss: the request vanishes in flight. *)
        t.drop_budget <- t.drop_budget - 1;
        t.dropped <- t.dropped + 1
      end
      else if t.corrupt_budget <= 0 then arrive t req
      else begin
        (* Soft error in flight: the message arrives bit-flipped. The
           owner's transformer marks it corrupt (so checksums catch it
           downstream); without one the message is undecodable and is
           simply lost — the deadline/retry layer recovers it. *)
        t.corrupt_budget <- t.corrupt_budget - 1;
        t.corrupted <- t.corrupted + 1;
        match t.on_corrupt with
        | Some f -> arrive t (f req)
        | None -> t.dropped <- t.dropped + 1
      end)

let queue_length t = t.len

(* Checkpoint observation: every mutable scalar of the service, in a
   fixed order. Requests themselves are closures/records the snapshot
   layer cannot serialize, so only counts are captured — enough for the
   verified-replay restore protocol, which compares state rather than
   reconstructing it. *)
let capture t =
  let b v = if v then 1 else 0 in
  [ waiting t;
    b t.in_service;
    b t.paused;
    t.busy_cycles;
    t.served;
    List.length t.waiters;
    b t.failed;
    t.slow_factor;
    t.slow_until;
    t.drop_budget;
    t.dropped;
    t.corrupt_budget;
    t.corrupted;
    t.dup_budget;
    t.duplicated;
    t.max_queue ]
let busy_cycles t = t.busy_cycles
let served t = t.served

let drain_then t action =
  if idle t then action () else t.waiters <- action :: t.waiters

let set_paused t paused =
  t.paused <- paused;
  if not paused then start_next t

(* ------------------------------------------------------------------ *)
(* Fault state                                                         *)
(* ------------------------------------------------------------------ *)

let fail t =
  t.failed <- true;
  (* The request in service stays at the head until its completion
     abandons it. *)
  let kept = t.len - waiting t in
  let orphans =
    List.init (waiting t) (fun i -> t.ring.(slot t (kept + i)))
  in
  t.len <- kept;
  t.dropped <- t.dropped + List.length orphans;
  notify_if_idle t;
  orphans

let failed t = t.failed

let inject t (kind : Fault.kind) =
  match kind with
  | Fault.Slow { factor; _ } when factor <= 1 ->
    t.slow_factor <- 1;
    t.slow_until <- 0
  | Fault.Slow { factor; cycles } ->
    t.slow_factor <- factor;
    t.slow_until <- Event_queue.now t.q + max 0 cycles
  | Fault.Drop_requests n -> t.drop_budget <- t.drop_budget + max 0 n
  | Fault.Corrupt_payload n -> t.corrupt_budget <- t.corrupt_budget + max 0 n
  | Fault.Duplicate_delivery n -> t.dup_budget <- t.dup_budget + max 0 n
  | Fault.Fail_stop | Fault.Corrupt_storage ->
    invalid_arg
      ("Service.inject: not a message-level fault: "
      ^ Fault.kind_to_string kind)

let dropped t = t.dropped
let corrupted t = t.corrupted
let duplicated t = t.duplicated

let record_totals stats ~hwm svcs =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 svcs in
  List.iter (fun s -> Stats.set_max stats hwm s.max_queue) svcs;
  Stats.add stats "fault.dropped_requests" (sum dropped);
  Stats.add stats "corrupt.messages" (sum corrupted);
  Stats.add stats "corrupt.duplicated" (sum duplicated)
