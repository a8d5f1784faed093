open Vat_host

let mask32 v = v land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Constant folding / propagation                                      *)
(* ------------------------------------------------------------------ *)

(* The value an instruction computes from known operands, masked to 32
   bits, or -1. [known r] and [get r] read the environment. *)
let folded_value known get : Hinsn.t -> int = function
  | Alu3 (op, _, rs, rt) ->
    if known rs && known rt then mask32 (Hexec.eval_alu3 op (get rs) (get rt))
    else -1
  | Alui (op, _, rs, imm) ->
    if known rs then mask32 (Hexec.eval_alui op (get rs) imm) else -1
  | Lui (_, imm) -> (imm land 0xFFFF) lsl 16
  | Shifti (op, _, rs, n) ->
    if known rs then mask32 (Hexec.eval_shift op (get rs) n) else -1
  | Shiftv (op, _, rs, rc) ->
    if known rs && known rc then mask32 (Hexec.eval_shift op (get rs) (get rc))
    else -1
  | Ext (_, rs, pos, size) ->
    if known rs then (get rs lsr pos) land ((1 lsl size) - 1) else -1
  | Ins _ | Load _ | Store _ | Branch _ | Jump _ | Mul64 _ | Div64 _ | Trap _
  | Nop -> -1

(* Strength-reduce a form with one known operand, or return [insn]. *)
let reduce known get (insn : Hinsn.t) : Hinsn.t =
  match insn with
  | Alu3 (Add, rd, rs, rt) ->
    if known rs && (not (known rt)) && Hinsn.fits_s16 (get rs) then
      Alui (Addi, rd, rt, get rs)
    else if known rt && (not (known rs)) && Hinsn.fits_s16 (get rt) then
      Alui (Addi, rd, rs, get rt)
    else insn
  | Alu3 (Sub, rd, rs, rt) ->
    if known rt && Hinsn.fits_s16 (-get rt) then Alui (Addi, rd, rs, -get rt)
    else insn
  | Alu3 ((And | Or | Xor) as op, rd, rs, rt) ->
    let to_imm : Hinsn.alui =
      match op with And -> Andi | Or -> Ori | _ -> Xori
    in
    if known rs && (not (known rt)) && Hinsn.fits_u16 (get rs) then
      Alui (to_imm, rd, rt, get rs)
    else if known rt && (not (known rs)) && Hinsn.fits_u16 (get rt) then
      Alui (to_imm, rd, rs, get rt)
    else insn
  | Shiftv (op, rd, rs, rc) ->
    if known rc then Shifti (op, rd, rs, get rc land 31) else insn
  | _ -> insn

let constant_fold_n nregs items =
  (* env.(r) holds r's known 32-bit value in its low bits and, above
     them, the epoch it was learned in, or -1: a value is known only in
     its own epoch, and a label starts a new one, forgetting everything. *)
  let env = Array.make nregs (-1) in
  let epoch = ref 0 in
  let known r = r = Hinsn.r0 || env.(r) lsr 32 = !epoch in
  let get r = if r = Hinsn.r0 then 0 else env.(r) land 0xFFFFFFFF in
  let kill r = env.(r) <- -1 in
  let learn r v =
    if r <> Hinsn.r0 then env.(r) <- mask32 v lor (!epoch lsl 32)
  in
  let step (item : Lblock.item) : Lblock.item =
    match item with
    | L _ ->
      incr epoch;
      item
    | I insn0 ->
      let v = folded_value known get insn0 in
      let final =
        if v < 0 then reduce known get insn0
        else
          match insn0 with
          | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
          | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _) | Ext (rd, _, _, _) -> (
            match Hinsn.const_insn rd v with
            | Some folded -> folded
            | None -> insn0)
          | _ -> insn0
      in
      (* Update the environment from the (possibly rewritten) instruction. *)
      Hinsn.iter_regs ~def:kill ~use:ignore final;
      (match final with
       | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
       | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _) | Ext (rd, _, _, _)
         when v >= 0 -> learn rd v
       | Lui (rd, imm) -> learn rd ((imm land 0xFFFF) lsl 16)
       | Alui (Ori, rd, rs, imm) when rs = Hinsn.r0 -> learn rd imm
       | Alui (Addi, rd, rs, imm) when rs = Hinsn.r0 -> learn rd imm
       | Alu3 (Or, rd, rs, rt) when rs = Hinsn.r0 && rt = Hinsn.r0 ->
         learn rd 0
       | _ -> ());
      if final == insn0 then item else I final
  in
  Lblock.map step items

let constant_fold items = constant_fold_n (Lblock.reg_count items) items

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

let copy_propagate_n nregs items =
  (* r holds a copy of src.(r) while stamp.(r) = !epoch (a label starts a
     new epoch) and src.(r) has not been written since: ver.(s) counts the
     writes of s, and seen.(r) is ver.(src.(r)) when the copy was made. *)
  let src = Array.make nregs (-1) and stamp = Array.make nregs (-1) in
  let ver = Array.make nregs 0 and seen = Array.make nregs 0 in
  let epoch = ref 0 in
  let resolve r =
    let s = src.(r) in
    if s >= 0 && stamp.(r) = !epoch && seen.(r) = ver.(s) then s else r
  in
  let invalidate r =
    src.(r) <- -1;
    ver.(r) <- ver.(r) + 1
  in
  (* Memory facts: fact i is width.(i) and, from fact.(5 * i), base,
     offset, value and the vers of base and value when it was recorded.
     It says value holds the width.(i) word at base + offset while both
     vers still match. Each load or store appends at most one; a label or
     a store empties the table, and the newest fact for an address
     decides. *)
  let cap =
    List.fold_left
      (fun n (item : Lblock.item) ->
        match item with I (Load _ | Store _) -> n + 1 | _ -> n)
      0 items
  in
  let width = Array.make cap Hinsn.W32 and fact = Array.make (5 * cap) 0 in
  let facts = ref 0 in
  let record w base off value =
    let i = !facts and f = 5 * !facts in
    width.(i) <- w;
    fact.(f) <- base;
    fact.(f + 1) <- off;
    fact.(f + 2) <- value;
    fact.(f + 3) <- ver.(base);
    fact.(f + 4) <- ver.(value);
    facts := i + 1
  in
  (* The register holding the word at [base + off], or -1. *)
  let rec lookup w base off i =
    if i < 0 then -1
    else
      let f = 5 * i in
      if width.(i) <> w || fact.(f) <> base || fact.(f + 1) <> off then
        lookup w base off (i - 1)
      else if fact.(f + 3) = ver.(base) && fact.(f + 4) = ver.(fact.(f + 2))
      then fact.(f + 2)
      else -1
  in
  (* One pass over the registers notes whether a use changes and the (at
     most two) defs, which are invalidated after the uses are rewritten. *)
  let changes = ref false and def0 = ref (-1) and def1 = ref (-1) in
  let probe r = if resolve r <> r then changes := true in
  let note r = if !def0 < 0 then def0 := r else def1 := r in
  let step (item : Lblock.item) : Lblock.item =
    match item with
    | L _ ->
      incr epoch;
      facts := 0;
      item
    | I insn ->
      changes := false;
      def0 := -1;
      def1 := -1;
      Hinsn.iter_regs ~def:note ~use:probe insn;
      (* Rewrite uses but not defs, so per-constructor (not map_regs). *)
      let f = resolve in
      let insn' : Hinsn.t =
        if not !changes then insn
        else
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
          let v = lookup w base off (!facts - 1) in
          if v >= 0 && v <> rd then Alu3 (Or, rd, v, Hinsn.r0) else insn'
        | _ -> insn'
      in
      if !def0 >= 0 then invalidate !def0;
      if !def1 >= 0 then invalidate !def1;
      (match insn' with
       | Load (w, rd, base, off) when rd <> base -> record w base off rd
       | Store (w, rv, base, off) ->
         (* Any store may alias any fact. *)
         facts := 0;
         if w = W32 then record w base off rv
       | _ -> ());
      let s = copy_source insn' in
      (match insn' with
       | (Alu3 (_, rd, _, _) | Alui (_, rd, _, _)) when s >= 0 && rd <> s ->
         src.(rd) <- s;
         stamp.(rd) <- !epoch;
         seen.(rd) <- ver.(s)
       | _ -> ());
      if insn' == insn then item else I insn'
  in
  Lblock.map step items

let copy_propagate items = copy_propagate_n (Lblock.reg_count items) items

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

(* Register sets as bitsets, 32 registers a word. *)
let bit r = 1 lsl (r land 31)
let mem set r = set.(r lsr 5) land bit r <> 0
let add set r = set.(r lsr 5) <- set.(r lsr 5) lor bit r
let remove set r = set.(r lsr 5) <- set.(r lsr 5) land lnot (bit r)

(* [addi]/[ori]/[xori rd, rd, 0] leaves every register as it was, so
   dropping it leaves every live set unchanged. *)
let self_move : Hinsn.t -> bool = function
  | Alui ((Addi | Ori | Xori), rd, rs, 0) -> rd = rs
  | _ -> false

let eliminate_dead_n ~live_out nregs items =
  (* One reverse pass: internal branches are forward-only, so every branch
     target's live-in is known before its branch is reached. [live] is the
     live-in of the position after the current one; each label records
     its own in [at_label], [words] ints from [id * words]. *)
  let top = List.fold_left Int.max (nregs - 1) live_out in
  let words = (top lsr 5) + 1 in
  let live = Array.make words 0 in
  List.iter (add live) live_out;
  let nlabels = Lblock.label_count items in
  let at_label = Array.make (nlabels * words) 0 in
  let placed = Array.make nlabels false in
  let label_live id =
    if id < 0 || id >= nlabels || not placed.(id) then begin
      let msg = Printf.sprintf "undefined or backward label %d" id in
      raise (Lblock.Malformed msg)
    end;
    id * words
  in
  (* [kill] notes whether the instruction defines anything and whether a
     def was live, then removes it from [live]. *)
  let def_seen = ref false and def_live = ref false in
  let kill r =
    def_seen := true;
    if mem live r then def_live := true;
    remove live r
  in
  let gen r = add live r in
  (* The recursion reaches the end first, so items are seen in reverse. *)
  let rec go = function
    | [] -> []
    | (item : Lblock.item) :: rest as l -> (
      let rest' = go rest in
      match item with
      | L id ->
        placed.(id) <- true;
        Array.blit live 0 at_label (id * words) words;
        Lblock.share l item rest'
      | I insn ->
        (match insn with
         | Jump id -> Array.blit at_label (label_live id) live 0 words
         | Branch (_, _, _, id) ->
           let base = label_live id in
           for i = 0 to words - 1 do
             live.(i) <- live.(i) lor at_label.(base + i)
           done
         | _ -> ());
        def_seen := false;
        def_live := false;
        Hinsn.iter_regs ~def:kill ~use:gen insn;
        let keep =
          (!def_live || (not !def_seen) || Hinsn.has_side_effect insn)
          && not (self_move insn)
        in
        if keep then Lblock.share l item rest' else rest')
  in
  go items

let run_all ~live_out items =
  (* No pass names a register the input does not, so one count serves.
     A sweep still counts the uses of what it drops, so the second
     removes defs whose only readers the first dropped. *)
  let nregs = Lblock.reg_count items in
  constant_fold_n nregs items
  |> copy_propagate_n nregs
  |> eliminate_dead_n ~live_out nregs
  |> eliminate_dead_n ~live_out nregs
