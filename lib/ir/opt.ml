open Vat_host

let mask32 v = v land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Constant folding / propagation                                      *)
(* ------------------------------------------------------------------ *)

(* Constant-folding state. env.(r) holds r's known 32-bit value in its
   low bits and, above them, the epoch it was learned in, or -1: a value
   is known only in its own epoch, and a label starts a new one,
   forgetting everything. *)
type cf = { env : int array; mutable cf_epoch : int }

let[@inline] known cf r = r = Hinsn.r0 || cf.env.(r) lsr 32 = cf.cf_epoch
let[@inline] get cf r = if r = Hinsn.r0 then 0 else cf.env.(r) land 0xFFFFFFFF

let[@inline] learn cf r v =
  if r <> Hinsn.r0 then cf.env.(r) <- mask32 v lor (cf.cf_epoch lsl 32)

(* The value an instruction computes from known operands, masked to 32
   bits, or -1. *)
let folded_value cf : Hinsn.t -> int = function
  | Alu3 (op, _, rs, rt) ->
    if known cf rs && known cf rt then
      mask32 (Hexec.eval_alu3 op (get cf rs) (get cf rt))
    else -1
  | Alui (op, _, rs, imm) ->
    if known cf rs then mask32 (Hexec.eval_alui op (get cf rs) imm) else -1
  | Lui (_, imm) -> (imm land 0xFFFF) lsl 16
  | Shifti (op, _, rs, n) ->
    if known cf rs then mask32 (Hexec.eval_shift op (get cf rs) n) else -1
  | Shiftv (op, _, rs, rc) ->
    if known cf rs && known cf rc then
      mask32 (Hexec.eval_shift op (get cf rs) (get cf rc))
    else -1
  | Ext (_, rs, pos, size) ->
    if known cf rs then (get cf rs lsr pos) land ((1 lsl size) - 1) else -1
  | Ins _ | Load _ | Store _ | Branch _ | Jump _ | Mul64 _ | Div64 _ | Trap _
  | Nop -> -1

(* Strength-reduce a form with one known operand, or return [insn]. *)
let reduce cf (insn : Hinsn.t) : Hinsn.t =
  match insn with
  | Alu3 (Add, rd, rs, rt) ->
    let ks = known cf rs and kt = known cf rt in
    if ks && (not kt) && Hinsn.fits_s16 (get cf rs) then
      Alui (Addi, rd, rt, get cf rs)
    else if kt && (not ks) && Hinsn.fits_s16 (get cf rt) then
      Alui (Addi, rd, rs, get cf rt)
    else insn
  | Alu3 (Sub, rd, rs, rt) ->
    if known cf rt && Hinsn.fits_s16 (-get cf rt) then
      Alui (Addi, rd, rs, -get cf rt)
    else insn
  | Alu3 ((And | Or | Xor) as op, rd, rs, rt) ->
    let to_imm : Hinsn.alui =
      match op with And -> Andi | Or -> Ori | _ -> Xori
    in
    let ks = known cf rs and kt = known cf rt in
    if ks && (not kt) && Hinsn.fits_u16 (get cf rs) then
      Alui (to_imm, rd, rt, get cf rs)
    else if kt && (not ks) && Hinsn.fits_u16 (get cf rt) then
      Alui (to_imm, rd, rs, get cf rt)
    else insn
  | Shiftv (op, rd, rs, rc) ->
    if known cf rc then Shifti (op, rd, rs, get cf rc land 31) else insn
  | _ -> insn

(* What constant folding makes of [insn0], updating the environment
   from the (possibly rewritten) instruction, whose operands it leaves
   in [ops]. *)
let fold cf ops (insn0 : Hinsn.t) : Hinsn.t =
  let v = folded_value cf insn0 in
  let final =
    if v < 0 then reduce cf insn0
    else
      match insn0 with
      | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
      | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _) | Ext (rd, _, _, _) -> (
        match Hinsn.const_insn rd v with
        | Some folded -> folded
        | None -> insn0)
      | _ -> insn0
  in
  Hinsn.operands final ops;
  if ops.(0) >= 0 then cf.env.(ops.(0)) <- -1;
  if ops.(1) >= 0 then cf.env.(ops.(1)) <- -1;
  (match final with
   | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
   | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _) | Ext (rd, _, _, _)
     when v >= 0 -> learn cf rd v
   | Lui (rd, imm) -> learn cf rd ((imm land 0xFFFF) lsl 16)
   | Alui (Ori, rd, rs, imm) when rs = Hinsn.r0 -> learn cf rd imm
   | Alui (Addi, rd, rs, imm) when rs = Hinsn.r0 -> learn cf rd imm
   | Alu3 (Or, rd, rs, rt) when rs = Hinsn.r0 && rt = Hinsn.r0 ->
     learn cf rd 0
   | _ -> ());
  final

(* ------------------------------------------------------------------ *)
(* Copy propagation and store-to-load forwarding                       *)
(* ------------------------------------------------------------------ *)

(* The register [insn] copies into its (non-r0) destination, or -1. *)
let copy_source : Hinsn.t -> Hinsn.reg = function
  | Alu3 (Or, rd, rs, rt) when rt = Hinsn.r0 && rd <> Hinsn.r0 -> rs
  | Alu3 (Or, rd, rs, rt) when rs = Hinsn.r0 && rd <> Hinsn.r0 -> rt
  | Alu3 (Add, rd, rs, rt) when rt = Hinsn.r0 && rd <> Hinsn.r0 -> rs
  | Alui (Addi, rd, rs, 0) when rd <> Hinsn.r0 -> rs
  | Alui (Ori, rd, rs, 0) when rd <> Hinsn.r0 -> rs
  | _ -> -1


(* Copy-propagation state. r holds a copy of src.(r) while stamp.(r) =
   cp_epoch (a label starts a new epoch) and src.(r) has not been
   written since: ver.(s) counts the writes of s, and seen.(r) is
   ver.(src.(r)) when the copy was made. Only [stamp] needs clearing per
   block: [src] and [seen] are read only under a current stamp, and
   [ver] only compared with values taken from it in the same block.

   Memory facts: fact i is the six ints from fact.(6 * i): width code,
   base, offset, value, and the vers of base and value when it was
   recorded. It says value holds the word of that width at base +
   offset while both vers still match. Each load or store appends at
   most one; a label or a store empties the table, and the newest fact
   for an address decides. *)
type cp = {
  src : int array;
  stamp : int array;
  ver : int array;
  seen : int array;
  fact : int array;
  mutable facts : int;
  mutable cp_epoch : int;
}

let[@inline] resolve cp r =
  let s = cp.src.(r) in
  if s >= 0 && cp.stamp.(r) = cp.cp_epoch && cp.seen.(r) = cp.ver.(s) then s
  else r

let[@inline] invalidate cp r =
  if r >= 0 then begin
    cp.src.(r) <- -1;
    cp.ver.(r) <- cp.ver.(r) + 1
  end

let width_code : Hinsn.width -> int = function W8 -> 0 | W8s -> 1 | W32 -> 2

let record cp w base off value =
  let f = 6 * cp.facts in
  let fact = cp.fact in
  fact.(f) <- width_code w;
  fact.(f + 1) <- base;
  fact.(f + 2) <- off;
  fact.(f + 3) <- value;
  fact.(f + 4) <- cp.ver.(base);
  fact.(f + 5) <- cp.ver.(value);
  cp.facts <- cp.facts + 1

(* The register holding the word at [base + off], from fact [i] down, or
   -1. *)
let rec lookup cp w base off i =
  if i < 0 then -1
  else
    let f = 6 * i and fact = cp.fact in
    if fact.(f) <> w || fact.(f + 1) <> base || fact.(f + 2) <> off then
      lookup cp w base off (i - 1)
    else if
      fact.(f + 4) = cp.ver.(base) && fact.(f + 5) = cp.ver.(fact.(f + 3))
    then fact.(f + 3)
    else -1

let[@inline] changed cp r = r >= 0 && resolve cp r <> r

(* What copy propagation makes of [insn], whose operands are in [ops],
   updating its state. *)
let propagate cp ops (insn : Hinsn.t) : Hinsn.t =
  (* Rewrite uses but not defs, so per-constructor (not map_regs). *)
  let insn' : Hinsn.t =
    if not (changed cp ops.(2) || changed cp ops.(3) || changed cp ops.(4))
    then insn
    else
      let f = resolve cp in
      match insn with
      | Alu3 (op, rd, rs, rt) -> Alu3 (op, rd, f rs, f rt)
      | Alui (op, rd, rs, imm) -> Alui (op, rd, f rs, imm)
      | Lui _ -> insn
      | Shifti (op, rd, rs, n) -> Shifti (op, rd, f rs, n)
      | Shiftv (op, rd, rs, rc) -> Shiftv (op, rd, f rs, f rc)
      | Ext (rd, rs, p, s) -> Ext (rd, f rs, p, s)
      | Ins (rd, rs, p, s) -> Ins (rd, f rs, p, s)
      | Load (w, rd, base, off) -> Load (w, rd, f base, off)
      | Store (w, rv, base, off) -> Store (w, f rv, f base, off)
      | Branch (c, rs, rt, tgt) -> Branch (c, f rs, f rt, tgt)
      | Jump _ -> insn
      | Mul64 rs -> Mul64 (f rs)
      | Div64 { divisor; signed } -> Div64 { divisor = f divisor; signed }
      | Trap (t, r) -> Trap (t, f r)
      | Nop -> Nop
  in
  (* A load from an address with a fact becomes a copy of its value. *)
  let insn' : Hinsn.t =
    match insn' with
    | Load (w, rd, base, off) ->
      let v = lookup cp (width_code w) base off (cp.facts - 1) in
      if v >= 0 && v <> rd then Alu3 (Or, rd, v, Hinsn.r0) else insn'
    | _ -> insn'
  in
  invalidate cp ops.(0);
  invalidate cp ops.(1);
  (match insn' with
   | Load (w, rd, base, off) when rd <> base -> record cp w base off rd
   | Store (w, rv, base, off) ->
     (* Any store may alias any fact. *)
     cp.facts <- 0;
     if w = W32 then record cp w base off rv
   | _ -> ());
  let s = copy_source insn' in
  (match insn' with
   | (Alu3 (_, rd, _, _) | Alui (_, rd, _, _)) when s >= 0 && rd <> s ->
     cp.src.(rd) <- s;
     cp.stamp.(rd) <- cp.cp_epoch;
     cp.seen.(rd) <- cp.ver.(s)
   | _ -> ());
  insn'

(* Workspace slots; the second dead-code sweep's [live] and [at_label]
   take the slot after the first's. *)
let ops_slot, env_slot, src_slot, stamp_slot, ver_slot = (0, 1, 2, 3, 4)
let seen_slot, fact_slot, placed_slot, live_slot, at_label_slot =
  (5, 6, 7, 8, 10)

(* One forward sweep: constant folding if [fold], then copy propagation
   of its output if [prop]. Each decides an item from earlier items
   only, so the sweep does exactly what the two passes do one after the
   other. *)
let forward ~fold:do_fold ~prop b =
  let n = b.Lblock.nregs in
  let ops = Workspace.ints ops_slot 5 in
  let cf = { env = Workspace.cleared env_slot n (-1); cf_epoch = 0 } in
  let cp =
    { src = Workspace.ints src_slot n;
      stamp = Workspace.cleared stamp_slot n (-1);
      ver = Workspace.ints ver_slot n;
      seen = Workspace.ints seen_slot n;
      fact = Workspace.ints fact_slot (6 * b.ninsns);
      facts = 0;
      cp_epoch = 0 }
  in
  let items = b.items in
  for k = 0 to b.len - 1 do
    match items.(k) with
    | L _ ->
      cf.cf_epoch <- cf.cf_epoch + 1;
      cp.cp_epoch <- cp.cp_epoch + 1;
      cp.facts <- 0
    | I insn ->
      let insn' = if do_fold then fold cf ops insn else insn in
      if not do_fold then Hinsn.operands insn ops;
      let insn' = if prop then propagate cp ops insn' else insn' in
      if insn' != insn then items.(k) <- I insn'
  done

let constant_fold b = forward ~fold:true ~prop:false b
let copy_propagate b = forward ~fold:false ~prop:true b

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

(* Register sets as bitsets, 32 registers a word. *)
let[@inline] bit r = 1 lsl (r land 31)
let[@inline] mem set r = set.(r lsr 5) land bit r <> 0
let[@inline] add set r = set.(r lsr 5) <- set.(r lsr 5) lor bit r

let[@inline] remove set r =
  set.(r lsr 5) <- set.(r lsr 5) land lnot (bit r)

(* [addi]/[ori]/[xori rd, rd, 0] leaves every register as it was, so
   dropping it leaves every live set unchanged. *)
let self_move : Hinsn.t -> bool = function
  | Alui ((Addi | Ori | Xori), rd, rs, 0) -> rd = rs
  | _ -> false

(* One dead-code sweep's state. [live] is the live-in of the position
   after the current one; each label's own is in [at_label], [words]
   ints from [id * words]. [placed.(id)] is 1 once label [id] is seen;
   the sweeps of one pass share it. *)
type sweep = {
  live : int array;
  at_label : int array;
  placed : int array;
  words : int;
  nlabels : int;
}

let rec add_all set = function
  | [] -> ()
  | r :: rest ->
    add set r;
    add_all set rest

let sweep ~live_out ~words ~placed ~nlabels i =
  let live = Workspace.cleared (live_slot + i) words 0 in
  add_all live live_out;
  { live;
    at_label = Workspace.ints (at_label_slot + i) (nlabels * words);
    placed;
    words;
    nlabels }

let label_live s id =
  if id < 0 || id >= s.nlabels || s.placed.(id) = 0 then begin
    let msg = Printf.sprintf "undefined or backward label %d" id in
    raise (Lblock.Malformed msg)
  end;
  id * s.words

let at_label s id = Array.blit s.live 0 s.at_label (id * s.words) s.words

(* Whether the sweep keeps [insn], whose operands are in [ops], and the
   live-in before it. A sweep counts the uses of what it drops. *)
let keeps s ops (insn : Hinsn.t) =
  let live = s.live in
  (match insn with
   | Jump id -> Array.blit s.at_label (label_live s id) live 0 s.words
   | Branch (_, _, _, id) ->
     let base = label_live s id in
     for i = 0 to s.words - 1 do
       live.(i) <- live.(i) lor s.at_label.(base + i)
     done
   | _ -> ());
  let d0 = ops.(0) and d1 = ops.(1) in
  let def_live = (d0 >= 0 && mem live d0) || (d1 >= 0 && mem live d1) in
  if d0 >= 0 then remove live d0;
  if d1 >= 0 then remove live d1;
  for j = 2 to 4 do
    if ops.(j) >= 0 then add live ops.(j)
  done;
  (def_live || d0 < 0 || Hinsn.has_side_effect insn) && not (self_move insn)

(* One reverse pass, [passes] (1 or 2) dead-code sweeps at once:
   internal branches are forward-only, so every branch target's live-in
   is known before its branch is reached. The second sweep sees only
   what the first keeps, as if it ran on the first's output, and
   deciding from later items only, it decides as that would. The body
   is compacted toward its end as it goes, then moved to the front. *)
let dead_code ~live_out ~passes (b : Lblock.t) =
  let nlabels = b.nlabels in
  let top = List.fold_left Int.max (b.nregs - 1) live_out in
  let words = (top lsr 5) + 1 in
  let placed = Workspace.cleared placed_slot nlabels 0 in
  let s1 = sweep ~live_out ~words ~placed ~nlabels 0 in
  let s2 =
    if passes = 2 then sweep ~live_out ~words ~placed ~nlabels 1 else s1
  in
  let ops = Workspace.ints ops_slot 5 in
  let items = b.items in
  let dst = ref b.len in
  for k = b.len - 1 downto 0 do
    let item = items.(k) in
    let keep =
      match item with
      | L id ->
        placed.(id) <- 1;
        at_label s1 id;
        if passes = 2 then at_label s2 id;
        true
      | I insn ->
        Hinsn.operands insn ops;
        keeps s1 ops insn && (passes = 1 || keeps s2 ops insn)
    in
    if keep then begin
      decr dst;
      if !dst <> k then items.(!dst) <- item
    end
    else b.ninsns <- b.ninsns - 1
  done;
  b.len <- b.len - !dst;
  Array.blit items !dst items 0 b.len

let eliminate_dead ~live_out b = dead_code ~live_out ~passes:1 b

let run_all ~live_out b =
  forward ~fold:true ~prop:true b;
  dead_code ~live_out ~passes:2 b
