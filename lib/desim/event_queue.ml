type event = { time : int; seq : int; action : unit -> unit }

(* Binary min-heap ordered by (time, seq). The [seq] tiebreak preserves
   insertion order for same-cycle events, which is what makes multi-actor
   simulations deterministic. *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable probe : (now:int -> pending:int -> unit) option;
}

let dummy = { time = 0; seq = 0; action = ignore }

let create () =
  { heap = Array.make 64 dummy; size = 0; clock = 0; next_seq = 0; probe = None }

let set_probe t f = t.probe <- Some f
let clear_probe t = t.probe <- None

let now t = t.clock

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: at=%d is before now=%d" at t.clock);
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- { time = at; seq = t.next_seq; action };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let after t ~delay action = schedule t ~at:(t.clock + delay) action

let pending t = t.size
let next_seq t = t.next_seq

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  sift_down t 0;
  top

let step t =
  if t.size = 0 then false
  else begin
    let e = pop t in
    t.clock <- e.time;
    (match t.probe with
     | None -> ()
     | Some f -> f ~now:e.time ~pending:t.size);
    e.action ();
    true
  end

let run_until t ~limit =
  let continue = ref true in
  while !continue do
    if t.size = 0 then begin
      if t.clock < limit then t.clock <- limit;
      continue := false
    end
    else if t.heap.(0).time > limit then continue := false
    else ignore (step t)
  done

let run t = while step t do () done

type stop = Finished | Cycle_limit | Deadlock

let rec drive t ~max_cycles ~finished =
  if finished () then Finished
  else if t.clock > max_cycles then Cycle_limit
  else if step t then drive t ~max_cycles ~finished
  else Deadlock
