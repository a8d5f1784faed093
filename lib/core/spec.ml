open Vat_desim

type status =
  | Queued of int (* current priority *)
  | In_flight
  | Done

type t = {
  cfg : Config.t;
  queues : int Queue.t array; (* by priority, 0 = most urgent *)
  status : (int, status) Hashtbl.t;
  depth : (int, int) Hashtbl.t;
  mutable queued_count : int; (* queue entries, stale duplicates included *)
  mutable live_queued : int;  (* addresses whose status is [Queued _] *)
  enqueued : Stats.lazy_counter;
  demand_requests : Stats.lazy_counter;
  max_queue_length : Stats.lazy_counter;
}

let priorities = 4

let create cfg stats =
  { cfg;
    queues = Array.init priorities (fun _ -> Queue.create ());
    status = Hashtbl.create 1024;
    depth = Hashtbl.create 1024;
    queued_count = 0;
    live_queued = 0;
    enqueued = Stats.lazy_counter stats "spec.enqueued";
    demand_requests = Stats.lazy_counter stats "spec.demand_requests";
    max_queue_length = Stats.lazy_counter stats "spec.max_queue_length" }

let priority_of_depth t d =
  if not t.cfg.Config.priority_queues then 0
  else if d <= 0 then 0
  else if d <= 2 then 1
  else if d <= 5 then 2
  else 3

let depth_of t addr = Option.value ~default:0 (Hashtbl.find_opt t.depth addr)

let push t addr prio =
  Queue.push addr t.queues.(prio);
  t.queued_count <- t.queued_count + 1;
  Hashtbl.replace t.status addr (Queued prio);
  Stats.set_max_lazy t.max_queue_length t.queued_count

let enqueue t addr ~depth =
  match Hashtbl.find_opt t.status addr with
  | Some (Done | In_flight) -> ()
  | Some (Queued old_prio) ->
    let prio = priority_of_depth t depth in
    if prio < old_prio then begin
      (* Promote: push at the higher priority; the stale queue entry is
         skipped lazily at pop time (status records the live priority). *)
      Hashtbl.replace t.depth addr depth;
      push t addr prio
    end
  | None ->
    Hashtbl.replace t.depth addr depth;
    t.live_queued <- t.live_queued + 1;
    push t addr (priority_of_depth t depth);
    Stats.incr_lazy t.enqueued

let request_demand t addr =
  Stats.incr_lazy t.demand_requests;
  enqueue t addr ~depth:0

let note_on_path t addr =
  if Hashtbl.mem t.depth addr then Hashtbl.replace t.depth addr 0

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

(* The status leaves [Queued _]; its queue entries go stale and are
   skipped at pop time. *)
let leave_queued t addr =
  match Hashtbl.find_opt t.status addr with
  | Some (Queued _) -> t.live_queued <- t.live_queued - 1
  | Some (In_flight | Done) | None -> ()

let mark_done t addr =
  leave_queued t addr;
  Hashtbl.replace t.status addr Done

let forget t addr =
  leave_queued t addr;
  Hashtbl.remove t.status addr;
  Hashtbl.remove t.depth addr

let forget_done t addr =
  match Hashtbl.find_opt t.status addr with
  | Some Done ->
    Hashtbl.remove t.status addr;
    Hashtbl.remove t.depth addr
  | Some (Queued _ | In_flight) | None -> ()

let is_done t addr =
  match Hashtbl.find_opt t.status addr with
  | Some Done -> true
  | Some (Queued _ | In_flight) | None -> false

let rec pop_queue t prio =
  if prio >= priorities then None
  else
    match Queue.take_opt t.queues.(prio) with
    | None -> pop_queue t (prio + 1)
    | Some addr -> begin
      t.queued_count <- t.queued_count - 1;
      match Hashtbl.find_opt t.status addr with
      | Some (Queued live_prio) when live_prio = prio ->
        t.live_queued <- t.live_queued - 1;
        Hashtbl.replace t.status addr In_flight;
        Some addr
      | Some (Queued _ | In_flight | Done) | None ->
        (* Stale entry from a promotion; skip it. *)
        pop_queue t prio
    end

let pop t = pop_queue t 0

let queue_length t = t.live_queued

(* Checkpoint digest: the hashtables are combined commutatively (their
   iteration order depends on insertion history), the queues in FIFO
   order (that order is observable via [pop]). *)
let state_digest t =
  let mix2 a b = (((a * 0x100000001b3) + b + 1) * 0x100000001b3) land max_int in
  let status_code = function
    | Queued p -> 16 + p
    | In_flight -> 1
    | Done -> 2
  in
  let statuses =
    Hashtbl.fold
      (fun addr s acc -> (acc + mix2 addr (status_code s)) land max_int)
      t.status 0
  in
  let depths =
    Hashtbl.fold
      (fun addr d acc -> (acc + mix2 addr d) land max_int)
      t.depth 0
  in
  let queues =
    Array.fold_left
      (fun acc q -> Queue.fold (fun acc addr -> mix2 acc addr) (mix2 acc 7) q)
      0 t.queues
  in
  mix2 (mix2 statuses depths) (mix2 queues t.queued_count)
