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

let constant_fold items =
  let env : (Hinsn.reg, int) Hashtbl.t = Hashtbl.create 32 in
  let known r = if r = Hinsn.r0 then Some 0 else Hashtbl.find_opt env r in
  let kill r = Hashtbl.remove env r in
  let learn r v = if r <> Hinsn.r0 then Hashtbl.replace env r (mask32 v) in
  let rewrite (item : Lblock.item) : Lblock.item option =
    match item with
    | L _ ->
      Hashtbl.reset env;
      Some item
    | I insn ->
      let result_value : int option =
        match insn with
        | Alu3 (op, _, rs, rt) -> begin
          match (known rs, known rt) with
          | Some a, Some b -> Some (Hexec.eval_alu3 op a b)
          | _ -> None
        end
        | Alui (op, _, rs, imm) -> begin
          match known rs with
          | Some a -> Some (Hexec.eval_alui op a imm)
          | None -> None
        end
        | Lui (_, imm) -> Some ((imm land 0xFFFF) lsl 16)
        | Shifti (op, _, rs, n) -> begin
          match known rs with
          | Some a -> Some (Hexec.eval_shift op a n)
          | None -> None
        end
        | Shiftv (op, _, rs, rc) -> begin
          match (known rs, known rc) with
          | Some a, Some c -> Some (Hexec.eval_shift op a c)
          | _ -> None
        end
        | Ext (_, rs, pos, size) -> begin
          match known rs with
          | Some a -> Some ((a lsr pos) land ((1 lsl size) - 1))
          | None -> None
        end
        | Ins _ | Load _ | Store _ | Branch _ | Jump _ | Mul64 _ | Div64 _
        | Trap _ | Nop -> None
      in
      let insn =
        (* Strength-reduce one-unknown forms even when full folding fails. *)
        match (result_value, insn) with
        | Some _, _ -> insn
        | None, Alu3 (Add, rd, rs, rt) -> begin
          match (known rs, known rt) with
          | Some a, None when fits_s16 a -> Alui (Addi, rd, rt, a)
          | None, Some b when fits_s16 b -> Alui (Addi, rd, rs, b)
          | _ -> insn
        end
        | None, Alu3 (Sub, rd, rs, rt) -> begin
          match known rt with
          | Some b when fits_s16 (-b) -> Alui (Addi, rd, rs, -b)
          | _ -> insn
        end
        | None, Alu3 ((And | Or | Xor) as op, rd, rs, rt) -> begin
          let to_imm : Hinsn.alui =
            match op with And -> Andi | Or -> Ori | _ -> Xori
          in
          match (known rs, known rt) with
          | Some a, None when fits_u16 a -> Alui (to_imm, rd, rt, a)
          | None, Some b when fits_u16 b -> Alui (to_imm, rd, rs, b)
          | _ -> insn
        end
        | None, Shiftv (op, rd, rs, rc) -> begin
          match known rc with
          | Some c -> Shifti (op, rd, rs, c land 31)
          | None -> insn
        end
        | None, _ -> insn
      in
      let item' : Lblock.item option =
        match insn with
        | Branch (c, rs, rt, target) -> begin
          match (known rs, known rt) with
          | Some a, Some b ->
            if Hexec.eval_branch c a b then Some (I (Jump target)) else None
          | _ -> Some (I insn)
        end
        | _ -> begin
          match (result_value, insn) with
          | Some v, (Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
                    | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _)
                    | Ext (rd, _, _, _)) -> begin
            match const_insn rd v with
            | Some folded -> Some (I folded)
            | None -> Some (I insn)
          end
          | _ -> Some (I insn)
        end
      in
      (* Update the environment from the (possibly rewritten) instruction. *)
      (match item' with
       | Some (I final) ->
         List.iter kill (Hinsn.defs final);
         (match (result_value, final) with
          | Some v, (Alu3 (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
                    | Shifti (_, rd, _, _) | Shiftv (_, rd, _, _)
                    | Ext (rd, _, _, _)) -> learn rd v
          | _, Lui (rd, imm) -> learn rd ((imm land 0xFFFF) lsl 16)
          | _, Alui (Ori, rd, rs, imm) when rs = Hinsn.r0 -> learn rd imm
          | _, Alui (Addi, rd, rs, imm) when rs = Hinsn.r0 -> learn rd imm
          | _, Alu3 (Or, rd, rs, rt) when rs = Hinsn.r0 && rt = Hinsn.r0 ->
            learn rd 0
          | _ -> ())
       | Some (L _) | None -> ());
      item'
  in
  List.filter_map rewrite items

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
(* ------------------------------------------------------------------ *)

let is_copy : Hinsn.t -> (Hinsn.reg * Hinsn.reg) option = function
  | Alu3 (Or, rd, rs, rt) when rt = Hinsn.r0 && rd <> Hinsn.r0 -> Some (rd, rs)
  | Alu3 (Or, rd, rs, rt) when rs = Hinsn.r0 && rd <> Hinsn.r0 -> Some (rd, rt)
  | Alu3 (Add, rd, rs, rt) when rt = Hinsn.r0 && rd <> Hinsn.r0 -> Some (rd, rs)
  | Alui (Addi, rd, rs, 0) when rd <> Hinsn.r0 -> Some (rd, rs)
  | Alui (Ori, rd, rs, 0) when rd <> Hinsn.r0 -> Some (rd, rs)
  | _ -> None

let copy_propagate items =
  (* src.(r): the register r currently holds a copy of, or -1. copies.(s)
     indexes the registers made copies of s, so a def of s invalidates
     only those (entries may be stale; src is the truth). *)
  let n = Lblock.reg_count items in
  let src = Array.make n (-1) in
  let copies = Array.make n [] in
  let tracked = ref [] in
  let resolve r = if src.(r) >= 0 then src.(r) else r in
  let invalidate r =
    src.(r) <- -1;
    List.iter (fun k -> if src.(k) = r then src.(k) <- -1) copies.(r);
    copies.(r) <- []
  in
  let step (item : Lblock.item) : Lblock.item =
    match item with
    | L _ ->
      List.iter (fun r -> src.(r) <- -1) !tracked;
      tracked := [];
      item
    | I insn ->
      (* Rewrite uses but not defs, so per-constructor (not map_regs). *)
      let f = resolve in
      let insn' : Hinsn.t =
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
      List.iter invalidate (Hinsn.defs insn');
      (match is_copy insn' with
       | Some (rd, rs) when rd <> rs ->
         src.(rd) <- rs;
         copies.(rs) <- rd :: copies.(rs);
         tracked := rd :: !tracked
       | Some _ | None -> ());
      I insn'
  in
  List.map step items

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

(* Register sets as bitsets, 32 registers a word. *)
let bit r = 1 lsl (r land 31)
let mem set r = set.(r lsr 5) land bit r <> 0
let add set r = set.(r lsr 5) <- set.(r lsr 5) lor bit r
let remove set r = set.(r lsr 5) <- set.(r lsr 5) land lnot (bit r)
let union_into dst set = Array.iteri (fun i w -> dst.(i) <- dst.(i) lor w) set

let eliminate_dead ~live_out items =
  (* One reverse pass: internal branches are forward-only, so every branch
     target's live-in is known before its branch is reached. [live] is the
     live-in of the position after the current one; labels record theirs
     for the branches above them. *)
  let top = List.fold_left max (Lblock.reg_count items - 1) live_out in
  let words = (top lsr 5) + 1 in
  let live = Array.make words 0 in
  List.iter (add live) live_out;
  let at_label = Hashtbl.create 8 in
  let label_live id =
    match Hashtbl.find_opt at_label id with
    | Some set -> set
    | None ->
      let msg = Printf.sprintf "undefined or backward label %d" id in
      raise (Lblock.Malformed msg)
  in
  List.fold_left
    (fun kept (item : Lblock.item) ->
      match item with
      | L id ->
        Hashtbl.replace at_label id (Array.copy live);
        item :: kept
      | I insn ->
        (match insn with
         | Jump id -> Array.blit (label_live id) 0 live 0 words
         | Branch (_, _, _, id) -> union_into live (label_live id)
         | _ -> ());
        let defs = Hinsn.defs insn in
        let keep =
          Hinsn.has_side_effect insn || defs = [] || List.exists (mem live) defs
        in
        List.iter (remove live) defs;
        List.iter (add live) (Hinsn.uses insn);
        if keep then item :: kept else kept)
    [] (List.rev items)

(* ------------------------------------------------------------------ *)
(* Redundant-load elimination / store-to-load forwarding               *)
(* ------------------------------------------------------------------ *)

let forward_loads items =
  (* Table: (width, base, offset) -> register currently holding the value. *)
  let table : (Hinsn.width * Hinsn.reg * int, Hinsn.reg) Hashtbl.t =
    Hashtbl.create 16
  in
  (* keys.(r): the entries whose base or value is r (possibly stale). *)
  let keys = Array.make (Lblock.reg_count items) [] in
  let set ((_, base, _) as k) v =
    Hashtbl.replace table k v;
    keys.(base) <- k :: keys.(base);
    keys.(v) <- k :: keys.(v)
  in
  let clear_all () = Hashtbl.reset table in
  let clear_reg r =
    List.iter
      (fun ((_, base, _) as k) ->
        match Hashtbl.find_opt table k with
        | Some v when base = r || v = r -> Hashtbl.remove table k
        | Some _ | None -> ())
      keys.(r);
    keys.(r) <- []
  in
  let step (item : Lblock.item) : Lblock.item =
    match item with
    | L _ ->
      clear_all ();
      item
    | I insn -> begin
      match insn with
      | Load (w, rd, base, off) -> begin
        match Hashtbl.find_opt table (w, base, off) with
        | Some src when src <> rd ->
          clear_reg rd;
          I (Alu3 (Or, rd, src, Hinsn.r0))
        | Some _ | None ->
          clear_reg rd;
          if rd <> base then set (w, base, off) rd;
          I insn
      end
      | Store (w, rv, base, off) ->
        (* Any store may alias any tracked location. *)
        clear_all ();
        if w = W32 then set (w, base, off) rv;
        I insn
      | _ ->
        List.iter clear_reg (Hinsn.defs insn);
        I insn
    end
  in
  List.map step items

(* ------------------------------------------------------------------ *)
(* Peephole                                                            *)
(* ------------------------------------------------------------------ *)

let peephole items =
  List.filter_map
    (fun (item : Lblock.item) ->
      match item with
      | L _ -> Some item
      | I Nop -> None
      | I (Alu3 ((Or | Add), rd, rs, rt)) when rd = rs && rt = Hinsn.r0 -> None
      | I (Alui ((Addi | Ori | Xori), rd, rs, 0)) when rd = rs -> None
      | I (Shifti (_, rd, rs, 0)) when rd = rs -> None
      | I (Shifti (_, rd, rs, 0)) -> Some (I (Alu3 (Or, rd, rs, Hinsn.r0)))
      | I _ -> Some item)
    items

let run_all ~live_out items =
  items
  |> constant_fold
  |> copy_propagate
  |> forward_loads
  |> copy_propagate
  |> eliminate_dead ~live_out
  |> peephole
  |> eliminate_dead ~live_out
