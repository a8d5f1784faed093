open Vat_host

(* List scheduler over straight-line segments.

   The runtime-execution tile is in-order and single-issue but scoreboards
   loads: a load's latency is hidden exactly when independent instructions
   separate it from its first use. Within each segment (no labels,
   branches, stores, traps, or macro-ops crossed) we therefore reorder so
   that loads — and the address arithmetic feeding them — issue as early
   as dependences allow, pushing consumers later.

   Dependences come from per-register tables, not from comparing every
   pair: an instruction depends on the last def of each register it reads
   (RAW) or writes (WAW), and on the readers since then of each register
   it writes (WAR). That edge set is a reduction of the pairwise relation
   with the same transitive closure, so readiness and load ancestry, and
   hence the emitted order, are exactly the pairwise scheduler's. *)

let is_barrier (insn : Hinsn.t) =
  match insn with
  | Store _ | Branch _ | Jump _ | Trap _ | Mul64 _ | Div64 _ -> true
  | Load _ | Alu3 _ | Alui _ | Lui _ | Shifti _ | Shiftv _ | Ext _ | Ins _
  | Nop -> false

(* Binary min-heap of item positions: one rank's ready list. *)
type heap = { data : int array; mutable size : int }

let push h x =
  let data = h.data in
  let i = ref h.size in
  while !i > 0 && data.((!i - 1) / 2) > x do
    let parent = (!i - 1) / 2 in
    data.(!i) <- data.(parent);
    i := parent
  done;
  data.(!i) <- x;
  h.size <- h.size + 1

let pop h =
  let data = h.data in
  let top = data.(0) in
  let size = h.size - 1 in
  h.size <- size;
  let x = data.(size) in
  if size > 0 then begin
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < size && data.(l + 1) < data.(l) then l + 1 else l in
      if c < size && data.(c) < x then begin
        data.(!i) <- data.(c);
        i := c
      end
      else settled := true
    done;
    data.(!i) <- x
  end;
  top

(* Scheduling can only move a segment of more than two instructions that
   holds a load: without one, every instruction ranks alike, and the
   earliest unscheduled is always ready, so the order stays. [run] counts
   the current segment's instructions, [load] whether one is a load. *)
let rec has_movable_segment run load = function
  | [] -> false
  | Lblock.I i :: rest when not (is_barrier i) ->
    let load = load || (match i with Load _ -> true | _ -> false) in
    (load && run >= 2) || has_movable_segment (run + 1) load rest
  | _ :: rest -> has_movable_segment 0 false rest

let schedule items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let is_load p = match arr.(p) with Lblock.I (Load _) -> true | _ -> false in
  (* [f lo hi] for each segment [lo, hi), which a label or barrier at [hi]
     (if [hi < n]) ends. *)
  let each_segment f =
    let lo = ref 0 in
    for p = 0 to n - 1 do
      match arr.(p) with
      | Lblock.I i when not (is_barrier i) -> ()
      | _ ->
        f !lo p;
        lo := p + 1
    done;
    f !lo n
  in
  (* The end of the part of segment [lo, hi) that can move: one past its
     last load, or [lo] when nothing can move. An instruction after the
     last load feeds no load, and the earliest unscheduled instruction is
     always ready, so the instructions after the last load follow all the
     others in their original order. *)
  let movable_end lo hi =
    let e = ref hi in
    while !e > lo && not (is_load (!e - 1)) do decr e done;
    if hi - lo > 2 then !e else lo
  in
  (* Operands of each position in a movable part: its uses at
     [3p, 3p + 3) and its defs at [2p, 2p + 2), padded with -1. r0 is left
     out: it never conflicts. *)
  let use_at = Array.make (3 * n) (-1) and def_at = Array.make (2 * n) (-1) in
  let uslot = ref 0 and dslot = ref 0 in
  let nuses = ref 0 and ndefs = ref 0 and top = ref 0 in
  let put a slot count r =
    if r <> Hinsn.r0 then begin
      a.(!slot) <- r;
      incr slot;
      incr count;
      top := Int.max !top r
    end
  in
  let put_use r = put use_at uslot nuses r
  and put_def r = put def_at dslot ndefs r in
  each_segment (fun lo hi ->
      for p = lo to movable_end lo hi - 1 do
        match arr.(p) with
        | Lblock.I i ->
          uslot := 3 * p;
          dslot := 2 * p;
          Hinsn.iter_regs ~def:put_def ~use:put_use i
        | L _ -> ()
      done);
  (* Per-register tables, by item position; entries from an earlier
     segment (below its start [lo]) are stale and ignored. [readers] is a
     list per register through the reader nodes, and [succs] one per
     position through the edges: RAW and WAR edges are at most one per
     use, WAW at most one per def. An edge may be recorded twice;
     [npreds] counts it twice too. *)
  let last_def = Array.make (!top + 1) (-1) in
  let readers = Array.make (!top + 1) (-1) in
  let reader_pos = Array.make !nuses 0 and reader_next = Array.make !nuses 0 in
  let nreaders = ref 0 in
  let max_edges = (2 * !nuses) + !ndefs in
  let edge_dst = Array.make max_edges 0 in
  let edge_next = Array.make max_edges 0 in
  let nedges = ref 0 in
  let succs = Array.make n (-1) in
  let npreds = Array.make n 0 in
  let feeds_load = Array.make n false in
  let ready = Array.init 3 (fun _ -> { data = Array.make n 0; size = 0 }) in
  let order = Array.make n 0 and emitted = ref 0 in
  let emit p =
    order.(!emitted) <- p;
    incr emitted
  in
  let edge i j =
    edge_dst.(!nedges) <- j;
    edge_next.(!nedges) <- succs.(i);
    succs.(i) <- !nedges;
    incr nedges;
    npreds.(j) <- npreds.(j) + 1
  in
  let rank p = if is_load p then 0 else if feeds_load.(p) then 1 else 2 in
  let schedule_segment lo hi =
    for j = lo to hi - 1 do
      (* RAW, then WAW and WAR, then record this position's reads and
         writes. *)
      for s = 3 * j to (3 * j) + 2 do
        let r = use_at.(s) in
        if r >= 0 && last_def.(r) >= lo then edge last_def.(r) j
      done;
      for s = 2 * j to (2 * j) + 1 do
        let r = def_at.(s) in
        if r >= 0 then begin
          if last_def.(r) >= lo then edge last_def.(r) j;
          let node = ref readers.(r) in
          while !node >= 0 do
            if reader_pos.(!node) >= lo then edge reader_pos.(!node) j;
            node := reader_next.(!node)
          done
        end
      done;
      for s = 3 * j to (3 * j) + 2 do
        let r = use_at.(s) in
        if r >= 0 then begin
          reader_pos.(!nreaders) <- j;
          reader_next.(!nreaders) <- readers.(r);
          readers.(r) <- !nreaders;
          incr nreaders
        end
      done;
      for s = 2 * j to (2 * j) + 1 do
        let r = def_at.(s) in
        if r >= 0 then begin
          last_def.(r) <- j;
          readers.(r) <- -1
        end
      done
    done;
    (* feeds_load.(i): some load transitively depends on i. *)
    for i = hi - 1 downto lo do
      let e = ref succs.(i) in
      while !e >= 0 && not feeds_load.(i) do
        let s = edge_dst.(!e) in
        if is_load s || feeds_load.(s) then feeds_load.(i) <- true;
        e := edge_next.(!e)
      done
    done;
    (* Ready = all predecessors scheduled. Prefer loads, then load
       ancestry, then anything; break ties by original order. *)
    for p = lo to hi - 1 do
      if npreds.(p) = 0 then push ready.(rank p) p
    done;
    for _ = lo to hi - 1 do
      let p =
        pop (if ready.(0).size > 0 then ready.(0)
             else if ready.(1).size > 0 then ready.(1)
             else ready.(2))
      in
      emit p;
      let e = ref succs.(p) in
      while !e >= 0 do
        let s = edge_dst.(!e) in
        npreds.(s) <- npreds.(s) - 1;
        if npreds.(s) = 0 then push ready.(rank s) s;
        e := edge_next.(!e)
      done
    done
  in
  each_segment (fun lo hi ->
      let e = movable_end lo hi in
      if e > lo then schedule_segment lo e;
      for p = e to hi - 1 do emit p done;
      if hi < n then emit hi);
  (* The output shares the input from the last position that moved. *)
  let k0 = ref n in
  while !k0 > 0 && order.(!k0 - 1) = !k0 - 1 do decr k0 done;
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  let rec build k acc =
    if k < 0 then acc else build (k - 1) (arr.(order.(k)) :: acc)
  in
  build (!k0 - 1) (drop !k0 items)

let hoist_loads items =
  if has_movable_segment 0 false items then schedule items else items
