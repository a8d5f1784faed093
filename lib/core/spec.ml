open Vat_desim

type status = Queued | In_flight | Done

(* What is known of one address. [prio] is the live priority while
   [Queued]; [depth] is -1 for an address marked done without ever being
   queued, which has no depth. *)
type entry = {
  mutable status : status;
  mutable prio : int;
  mutable depth : int;
}

type t = {
  cfg : Config.t;
  queues : int Queue.t array; (* by priority, 0 = most urgent *)
  entries : (int, entry) Hashtbl.t;
  mutable live_queued : int;  (* addresses whose status is [Queued] *)
  enqueued : Stats.counter;
  demand_requests : Stats.counter;
  max_queue_length : Stats.counter;
}

let priorities = 4

let create cfg stats =
  { cfg;
    queues = Array.init priorities (fun _ -> Queue.create ());
    entries = Hashtbl.create 1024;
    live_queued = 0;
    enqueued = Stats.counter stats "spec.enqueued";
    demand_requests = Stats.counter stats "spec.demand_requests";
    max_queue_length = Stats.counter stats "spec.max_queue_length" }

let priority_of_depth t d =
  if not t.cfg.Config.priority_queues then 0
  else if d <= 0 then 0
  else if d <= 2 then 1
  else if d <= 5 then 2
  else 3

(* What [find] returns for an address with no entry: never mutated,
   told apart by physical equality, and neither queued nor done. *)
let absent = { status = In_flight; prio = 0; depth = -1 }

let find t addr = try Hashtbl.find t.entries addr with Not_found -> absent

let depth_of t addr = max 0 (find t addr).depth

let push t addr e prio =
  Queue.push addr t.queues.(prio);
  e.status <- Queued;
  e.prio <- prio;
  Stats.bump_max t.max_queue_length t.live_queued

let enqueue t addr ~depth =
  let e = find t addr and prio = priority_of_depth t depth in
  if e == absent then begin
    let e = { status = Queued; prio; depth } in
    Hashtbl.add t.entries addr e;
    t.live_queued <- t.live_queued + 1;
    push t addr e prio;
    Stats.bump t.enqueued
  end
  else if e.status = Queued && prio < e.prio then begin
    (* Promote: push at the higher priority; the stale queue entry is
       skipped lazily at pop time (the entry records the live priority). *)
    e.depth <- depth;
    push t addr e prio
  end

let request_demand t addr =
  Stats.bump t.demand_requests;
  enqueue t addr ~depth:0

let note_on_path t addr =
  let e = find t addr in
  if e.depth >= 0 then e.depth <- 0

let seed t addr = enqueue t addr ~depth:0

let return_depth = 10 (* lands in the lowest-priority queue *)

let note_block_translated t (block : Block.t) =
  if t.cfg.Config.speculation then begin
    let d = depth_of t block.guest_addr in
    let enq addr ~depth = enqueue t addr ~depth in
    match block.term with
    | T_jmp { target } -> enq target ~depth:(d + 1)
    | T_jcc { taken; fall } ->
      (* Static prediction: backward branches taken (Ball-Larus). *)
      if taken < block.guest_addr then begin
        enq taken ~depth:(d + 1);
        enq fall ~depth:(d + 2)
      end
      else begin
        enq fall ~depth:(d + 1);
        enq taken ~depth:(d + 2)
      end
    | T_call { target; ret } ->
      enq target ~depth:(d + 1);
      (* Return predictor: the address after the call, at low priority
         (code inside the callee matters sooner than the return point). *)
      if t.cfg.Config.return_predictor then enq ret ~depth:return_depth
    | T_jind { kind = K_call ret } ->
      if t.cfg.Config.return_predictor then enq ret ~depth:return_depth
    | T_syscall { next } -> enq next ~depth:(d + 1)
    | T_jind { kind = K_jump | K_ret } | T_fault _ -> ()
  end

(* The status leaves [Queued]; its queue entries go stale and are
   skipped at pop time. *)
let leave_queued t (e : entry) =
  if e.status = Queued then t.live_queued <- t.live_queued - 1

let mark_done t addr =
  let e = find t addr in
  if e == absent then
    Hashtbl.add t.entries addr { status = Done; prio = 0; depth = -1 }
  else begin
    leave_queued t e;
    e.status <- Done
  end

let forget t addr =
  leave_queued t (find t addr);
  Hashtbl.remove t.entries addr

let forget_done t addr =
  if (find t addr).status = Done then Hashtbl.remove t.entries addr

let is_done t addr = (find t addr).status = Done

let rec pop_queue t prio =
  if prio >= priorities then None
  else
    match Queue.take_opt t.queues.(prio) with
    | None -> pop_queue t (prio + 1)
    | Some addr -> begin
      let e = find t addr in
      if e.status = Queued && e.prio = prio then begin
        t.live_queued <- t.live_queued - 1;
        e.status <- In_flight;
        Some addr
      end
      else
        (* Stale entry from a promotion; skip it. *)
        pop_queue t prio
    end

let pop t = pop_queue t 0

let queue_length t = t.live_queued

(* Checkpoint digest: the entries are combined commutatively (their
   iteration order depends on insertion history), as a sum of status
   terms and a sum of depth terms (an entry without a depth adds none),
   the queues in FIFO order (that order is observable via [pop]). *)
let state_digest t =
  let mix2 a b = (((a * 0x100000001b3) + b + 1) * 0x100000001b3) land max_int in
  let status_code e =
    match e.status with
    | Queued -> 16 + e.prio
    | In_flight -> 1
    | Done -> 2
  in
  let statuses =
    Hashtbl.fold
      (fun addr e acc -> (acc + mix2 addr (status_code e)) land max_int)
      t.entries 0
  in
  let depths =
    Hashtbl.fold
      (fun addr e acc ->
        if e.depth < 0 then acc else (acc + mix2 addr e.depth) land max_int)
      t.entries 0
  in
  let queues =
    Array.fold_left
      (fun acc q -> Queue.fold (fun acc addr -> mix2 acc addr) (mix2 acc 7) q)
      0 t.queues
  in
  mix2 (mix2 statuses depths) queues
