open Vat_host

let scratch_base_reg = 26
let shuttle_regs = (27, 28)

exception Alloc_error of string

let is_vreg r = r >= Hinsn.first_vreg

(* Live interval of each vreg: [first, last] item positions, by register
   id, and the vregs in order of first mention (so by start). Forward-only
   internal branches make this exact (a value cannot flow backward). *)
let intervals items =
  let n = Lblock.reg_count items in
  let first = Array.make n (-1) and last = Array.make n (-1) in
  let order = ref [] in
  List.iteri
    (fun pos (item : Lblock.item) ->
      match item with
      | L _ -> ()
      | I insn ->
        let touch r =
          if is_vreg r then begin
            if first.(r) < 0 then begin
              first.(r) <- pos;
              order := r :: !order
            end;
            last.(r) <- pos
          end
        in
        List.iter touch (Hinsn.defs insn);
        List.iter touch (Hinsn.uses insn))
    items;
  (first, last, List.rev !order)

(* One allocation attempt: returns [Ok mapping] or [Error vregs_to_spill].
   [active] holds the vregs currently owning a register, newest first (at
   most one per temporary, so scanning it is constant work). *)
let try_assign items =
  let first, last, order = intervals items in
  let mapping = Array.make (Array.length first) (-1) in
  let free = ref Hinsn.temp_regs in
  let active = ref [] in
  let spills = ref [] in
  List.iter
    (fun v ->
      (* Expire intervals that ended before this one starts. *)
      let ended a = last.(a) < first.(v) in
      if List.exists ended !active then begin
        let expired, still = List.partition ended !active in
        List.iter (fun a -> free := mapping.(a) :: !free) expired;
        active := still
      end;
      match !free with
      | hw :: rest ->
        free := rest;
        mapping.(v) <- hw;
        active := v :: !active
      | [] ->
        (* Spill the interval with the furthest end (this one or an active
           one; the earliest in that order on a tie). Spilling an active
           interval frees its register. *)
        let victim =
          List.fold_left
            (fun best cand -> if last.(cand) > last.(best) then cand else best)
            v !active
        in
        spills := victim :: !spills;
        if victim <> v then begin
          mapping.(v) <- mapping.(victim);
          mapping.(victim) <- -1;
          active := v :: List.filter (fun a -> a <> victim) !active
        end)
    order;
  if !spills = [] then Ok mapping else Error !spills

(* Rewrite spilled vregs into loads/stores around each instruction. *)
let rewrite_spills spilled items =
  let slot : (Hinsn.reg, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace slot v (i * 4)) spilled;
  let s1, s2 = shuttle_regs in
  let rewrite (item : Lblock.item) : Lblock.item list =
    match item with
    | L _ -> [ item ]
    | I insn ->
      let uses = List.filter (fun r -> Hashtbl.mem slot r) (Hinsn.uses insn) in
      let defs = List.filter (fun r -> Hashtbl.mem slot r) (Hinsn.defs insn) in
      if uses = [] && defs = [] then [ item ]
      else begin
        let uses = List.sort_uniq compare uses in
        let assign =
          match uses with
          | [] -> []
          | [ a ] -> [ (a, s1) ]
          | [ a; b ] -> [ (a, s1); (b, s2) ]
          | _ -> raise (Alloc_error "more than two spilled sources")
        in
        let shuttle_of r =
          match List.assoc_opt r assign with
          | Some s -> s
          | None -> (
            (* A pure def: route it through s1 (never both a source
               shuttle and the def shuttle unless it is also a use, in
               which case reuse its source shuttle). *)
            match defs with _ -> s1)
        in
        let pre =
          List.map
            (fun (v, s) ->
              Lblock.I (Hinsn.Load (W32, s, scratch_base_reg, Hashtbl.find slot v)))
            assign
        in
        let rename r =
          if Hashtbl.mem slot r then
            match List.assoc_opt r assign with
            | Some s -> s
            | None -> shuttle_of r
          else r
        in
        let core = Hinsn.map_regs rename insn in
        let post =
          List.map
            (fun v ->
              let s = rename v in
              Lblock.I (Hinsn.Store (W32, s, scratch_base_reg, Hashtbl.find slot v)))
            defs
        in
        pre @ [ Lblock.I core ] @ post
      end
  in
  List.concat_map rewrite items

let rec allocate items =
  match try_assign items with
  | Ok mapping ->
    let rename r =
      if not (is_vreg r) then r
      else if mapping.(r) >= 0 then mapping.(r)
      else raise (Alloc_error (Printf.sprintf "unmapped vreg %d" r))
    in
    List.map
      (fun (item : Lblock.item) ->
        match item with
        | L _ -> item
        | I insn -> Lblock.I (Hinsn.map_regs rename insn))
      items
  | Error spills -> allocate (rewrite_spills (List.sort_uniq compare spills) items)
