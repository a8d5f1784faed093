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

let is_load (insn : Hinsn.t) = match insn with Load _ -> true | _ -> false

(* Binary min-heap of item positions: one rank's ready list. *)
type heap = { data : int array; mutable size : int }

let push h x =
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.data.(parent) > x then begin
      h.data.(i) <- h.data.(parent);
      up parent
    end
    else h.data.(i) <- x
  in
  up h.size;
  h.size <- h.size + 1

let pop h =
  let top = h.data.(0) in
  h.size <- h.size - 1;
  let x = h.data.(h.size) in
  let rec down i =
    let l = (2 * i) + 1 in
    let c =
      if l + 1 < h.size && h.data.(l + 1) < h.data.(l) then l + 1 else l
    in
    if c < h.size && h.data.(c) < x then begin
      h.data.(i) <- h.data.(c);
      down c
    end
    else h.data.(i) <- x
  in
  if h.size > 0 then down 0;
  top

let hoist_loads items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let insn p = match arr.(p) with Lblock.I i -> i | L _ -> Hinsn.Nop in
  let defs = Array.map (function Lblock.I i -> Hinsn.defs i | L _ -> []) arr in
  let uses = Array.map (function Lblock.I i -> Hinsn.uses i | L _ -> []) arr in
  (* Per-register tables, by item position; entries from an earlier
     segment (below its start [lo]) are stale and ignored. An edge may be
     recorded twice; [npreds] counts it twice too. *)
  let nregs = Lblock.reg_count items in
  let last_def = Array.make nregs (-1) in
  let readers = Array.make nregs [] in
  let succs = Array.make n [] in
  let npreds = Array.make n 0 in
  let feeds_load = Array.make n false in
  let ready = Array.init 3 (fun _ -> { data = Array.make n 0; size = 0 }) in
  let out = ref [] in
  let schedule lo hi =
    for j = lo to hi - 1 do
      let edge i =
        succs.(i) <- j :: succs.(i);
        npreds.(j) <- npreds.(j) + 1
      in
      let after_def r = if last_def.(r) >= lo then edge last_def.(r) in
      List.iter (fun r -> if r <> Hinsn.r0 then after_def r) uses.(j);
      List.iter
        (fun r ->
          if r <> Hinsn.r0 then begin
            after_def r;
            List.iter (fun k -> if k >= lo then edge k) readers.(r)
          end)
        defs.(j);
      List.iter (fun r -> readers.(r) <- j :: readers.(r)) uses.(j);
      List.iter
        (fun r ->
          last_def.(r) <- j;
          readers.(r) <- [])
        defs.(j)
    done;
    (* feeds_load.(i): some load transitively depends on i. *)
    for i = hi - 1 downto lo do
      feeds_load.(i) <-
        List.exists (fun s -> is_load (insn s) || feeds_load.(s)) succs.(i)
    done;
    (* Ready = all predecessors scheduled. Prefer loads, then load
       ancestry, then anything; break ties by original order. *)
    let rank p =
      if is_load (insn p) then 0 else if feeds_load.(p) then 1 else 2
    in
    for p = lo to hi - 1 do
      if npreds.(p) = 0 then push ready.(rank p) p
    done;
    for _ = lo to hi - 1 do
      let p =
        pop (if ready.(0).size > 0 then ready.(0)
             else if ready.(1).size > 0 then ready.(1)
             else ready.(2))
      in
      out := arr.(p) :: !out;
      List.iter
        (fun s ->
          npreds.(s) <- npreds.(s) - 1;
          if npreds.(s) = 0 then push ready.(rank s) s)
        succs.(p)
    done
  in
  (* Split into segments at labels and barrier instructions. *)
  let flush lo hi =
    if hi - lo > 2 then schedule lo hi
    else for p = lo to hi - 1 do out := arr.(p) :: !out done
  in
  let lo = ref 0 in
  for p = 0 to n - 1 do
    match arr.(p) with
    | Lblock.I i when not (is_barrier i) -> ()
    | item ->
      flush !lo p;
      out := item :: !out;
      lo := p + 1
  done;
  flush !lo n;
  List.rev !out
