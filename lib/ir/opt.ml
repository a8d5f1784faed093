open Vat_host

let mask32 v = v land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Constant folding / propagation                                      *)
(* ------------------------------------------------------------------ *)

let fits_s16 v = v >= -32768 && v <= 32767
let fits_u16 v = v >= 0 && v <= 0xFFFF

(* A single instruction materializing a constant, when one exists. *)
let const_insn rd v : Hinsn.t option =
  let v = mask32 v in
  if v = 0 then Some (Alu3 (Or, rd, Hinsn.r0, Hinsn.r0))
  else if fits_u16 v then Some (Alui (Ori, rd, Hinsn.r0, v))
  else if fits_s16 (v - 0x100000000) then
    Some (Alui (Addi, rd, Hinsn.r0, v - 0x100000000))
  else if v land 0xFFFF = 0 then Some (Lui (rd, v lsr 16))
  else None

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
    if known rs && (not (known rt)) && fits_s16 (get rs) then
      Alui (Addi, rd, rt, get rs)
    else if known rt && (not (known rs)) && fits_s16 (get rt) then
      Alui (Addi, rd, rs, get rt)
    else insn
  | Alu3 (Sub, rd, rs, rt) ->
    if known rt && fits_s16 (-get rt) then Alui (Addi, rd, rs, -get rt)
    else insn
  | Alu3 ((And | Or | Xor) as op, rd, rs, rt) ->
    let to_imm : Hinsn.alui =
      match op with And -> Andi | Or -> Ori | _ -> Xori
    in
    if known rs && (not (known rt)) && fits_u16 (get rs) then
      Alui (to_imm, rd, rt, get rs)
    else if known rt && (not (known rs)) && fits_u16 (get rt) then
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
  let rec go = function
    | [] -> []
    | (Lblock.L _ as item) :: rest as l ->
      incr epoch;
      Lblock.share l item (go rest)
    | (Lblock.I insn0 as item) :: rest as l -> (
      let v = folded_value known get insn0 in
      let insn = if v >= 0 then insn0 else reduce known get insn0 in
      match insn with
      | Branch (c, rs, rt, target) when known rs && known rt ->
        if Hexec.eval_branch c (get rs) (get rt) then
          let rest = go rest in
          Lblock.I (Jump target) :: rest
        else go rest
      | _ ->
        let final =
          if v < 0 then insn
          else
            match insn with
            | Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
            | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _) | Ext (rd, _, _, _)
              -> (
              match const_insn rd v with Some folded -> folded | None -> insn)
            | _ -> insn
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
        let item' = if final == insn0 then item else Lblock.I final in
        Lblock.share l item' (go rest))
  in
  go items

let constant_fold items = constant_fold_n (Lblock.reg_count items) items

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
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
  (* One pass over the registers notes whether a use changes and the (at
     most two) defs, which are invalidated after the uses are rewritten. *)
  let changes = ref false and def0 = ref (-1) and def1 = ref (-1) in
  let probe r = if resolve r <> r then changes := true in
  let note r = if !def0 < 0 then def0 := r else def1 := r in
  let step (item : Lblock.item) : Lblock.item =
    match item with
    | L _ ->
      incr epoch;
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
      if !def0 >= 0 then invalidate !def0;
      if !def1 >= 0 then invalidate !def1;
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
        let keep = !def_live || (not !def_seen) || Hinsn.has_side_effect insn in
        if keep then Lblock.share l item rest' else rest')
  in
  go items

let eliminate_dead ~live_out items =
  eliminate_dead_n ~live_out (Lblock.reg_count items) items

(* ------------------------------------------------------------------ *)
(* Redundant-load elimination / store-to-load forwarding               *)
(* ------------------------------------------------------------------ *)

let width_code : Hinsn.width -> int = function W8 -> 0 | W8s -> 1 | W32 -> 2

let forward_loads_n nregs items =
  (* The table: entry i says register value.(i) holds the word of width
     width.(i) at base.(i) + offset.(i); keys are unique, and each load or
     store adds at most one. refs.(r) counts the entries whose base or
     value is r, so most defs skip the scan. *)
  let cap = Lblock.insn_count items in
  let width = Array.make cap 0 and base = Array.make cap 0 in
  let offset = Array.make cap 0 and value = Array.make cap 0 in
  let n = ref 0 in
  let refs = Array.make nregs 0 in
  let find w b o =
    let rec scan i =
      if i >= !n then -1
      else if width.(i) = w && base.(i) = b && offset.(i) = o then value.(i)
      else scan (i + 1)
    in
    scan 0
  in
  let unref i =
    refs.(base.(i)) <- refs.(base.(i)) - 1;
    refs.(value.(i)) <- refs.(value.(i)) - 1
  in
  let drop i =
    unref i;
    decr n;
    let last = !n in
    width.(i) <- width.(last);
    base.(i) <- base.(last);
    offset.(i) <- offset.(last);
    value.(i) <- value.(last)
  in
  let set w b o v =
    let rec slot i =
      if i >= !n then begin
        incr n;
        i
      end
      else if width.(i) = w && base.(i) = b && offset.(i) = o then begin
        unref i;
        i
      end
      else slot (i + 1)
    in
    let i = slot 0 in
    width.(i) <- w;
    base.(i) <- b;
    offset.(i) <- o;
    value.(i) <- v;
    refs.(b) <- refs.(b) + 1;
    refs.(v) <- refs.(v) + 1
  in
  let clear_all () =
    for i = 0 to !n - 1 do
      unref i
    done;
    n := 0
  in
  let clear_reg r =
    let i = ref 0 in
    while refs.(r) > 0 do
      if base.(!i) = r || value.(!i) = r then drop !i else incr i
    done
  in
  let step (item : Lblock.item) : Lblock.item =
    match item with
    | L _ ->
      clear_all ();
      item
    | I insn -> begin
      match insn with
      | Load (w, rd, b, off) ->
        let w = width_code w in
        let src = find w b off in
        clear_reg rd;
        if src >= 0 && src <> rd then I (Alu3 (Or, rd, src, Hinsn.r0))
        else begin
          if rd <> b then set w b off rd;
          item
        end
      | Store (w, rv, b, off) ->
        (* Any store may alias any tracked location. *)
        clear_all ();
        if w = W32 then set (width_code w) b off rv;
        item
      | _ ->
        if !n > 0 then Hinsn.iter_regs ~def:clear_reg ~use:ignore insn;
        item
    end
  in
  Lblock.map step items

let forward_loads items = forward_loads_n (Lblock.reg_count items) items

(* ------------------------------------------------------------------ *)
(* Peephole                                                            *)
(* ------------------------------------------------------------------ *)

let[@tail_mod_cons] rec peephole = function
  | [] -> []
  | (item : Lblock.item) :: rest -> (
    match item with
    | I Nop -> peephole rest
    | I (Alu3 ((Or | Add), rd, rs, rt)) when rd = rs && rt = Hinsn.r0 ->
      peephole rest
    | I (Alui ((Addi | Ori | Xori), rd, rs, 0)) when rd = rs -> peephole rest
    | I (Shifti (_, rd, rs, 0)) when rd = rs -> peephole rest
    | I (Shifti (_, rd, rs, 0)) ->
      Lblock.I (Alu3 (Or, rd, rs, Hinsn.r0)) :: peephole rest
    | L _ | I _ -> item :: peephole rest)

let run_all ~live_out items =
  (* No pass names a register the input does not, so one count serves. *)
  let nregs = Lblock.reg_count items in
  let copied = copy_propagate_n nregs (constant_fold_n nregs items) in
  let forwarded = forward_loads_n nregs copied in
  (* Copy propagation is idempotent, so it need not run again on a body
     that load forwarding returned unchanged. *)
  (if forwarded == copied then copied else copy_propagate_n nregs forwarded)
  |> eliminate_dead_n ~live_out nregs
  |> peephole
  |> eliminate_dead_n ~live_out nregs
