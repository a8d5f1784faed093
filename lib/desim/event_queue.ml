(* Binary min-heap ordered by (time, seq), kept as three parallel arrays
   so that scheduling allocates nothing beyond the caller's closure. The
   [seq] tiebreak preserves insertion order for same-cycle events, which
   is what makes multi-actor simulations deterministic. *)
type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable probe : (now:int -> pending:int -> unit) option;
}

let initial_capacity = 64

let create () =
  { times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    actions = Array.make initial_capacity ignore;
    size = 0;
    clock = 0;
    next_seq = 0;
    probe = None }

let set_probe t f = t.probe <- Some f
let clear_probe t = t.probe <- None

let now t = t.clock

(* Slot [i] fires before an entry at ([time], [seq]). *)
let[@inline] earlier t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.actions.(dst) <- t.actions.(src)

(* Sift with a hole: [i] is free; move parents down into it until the
   entry's place is found, then write the entry once. *)
let rec sift_up t i time seq action =
  let parent = (i - 1) / 2 in
  if i > 0 && not (earlier t parent time seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq action
  end
  else begin
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.actions.(i) <- action
  end

(* The same, downwards: [i] is free; move the earlier child up into it. *)
let rec sift_down t i time seq action =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < t.size && earlier t (l + 1) t.times.(l) t.seqs.(l) then l + 1
    else l
  in
  if c < t.size && earlier t c time seq then begin
    move t ~src:c ~dst:i;
    sift_down t c time seq action
  end
  else begin
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.actions.(i) <- action
  end

let grow t =
  let n = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.actions <- extend t.actions ignore

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: at=%d is before now=%d" at t.clock);
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at seq action

let after t ~delay action = schedule t ~at:(t.clock + delay) action

let pending t = t.size
let next_seq t = t.next_seq

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and action = t.actions.(0) in
    let last = t.size - 1 in
    t.size <- last;
    (* Re-seat the last entry from the root down, and clear its old slot
       so the array keeps no fired closure alive. *)
    if last > 0 then
      sift_down t 0 t.times.(last) t.seqs.(last) t.actions.(last);
    t.actions.(last) <- ignore;
    t.clock <- time;
    (match t.probe with
     | None -> ()
     | Some f -> f ~now:time ~pending:t.size);
    action ();
    true
  end

let run_until t ~limit =
  let continue = ref true in
  while !continue do
    if t.size = 0 then begin
      if t.clock < limit then t.clock <- limit;
      continue := false
    end
    else if t.times.(0) > limit then continue := false
    else ignore (step t)
  done

let run t = while step t do () done

type stop = Finished | Cycle_limit | Deadlock

let rec drive t ~max_cycles ~finished =
  if finished () then Finished
  else if t.clock > max_cycles then Cycle_limit
  else if step t then drive t ~max_cycles ~finished
  else Deadlock
