open Vat_host

let scratch_base_reg = 26
let shuttle_regs = (27, 28)

exception Alloc_error of string

let is_vreg r = r >= Hinsn.first_vreg

(* Live interval of each vreg: [first, last] item positions, by register
   id, and the vregs in order of first mention (so by start), in
   [order.(0 .. count - 1)]. Forward-only internal branches make this
   exact (a value cannot flow backward). *)
let intervals nregs items =
  let first = Array.make nregs (-1) and last = Array.make nregs (-1) in
  let order = Array.make (Int.max 0 (nregs - Hinsn.first_vreg)) 0 in
  let count = ref 0 and pos = ref 0 in
  let touch r =
    if is_vreg r then begin
      if first.(r) < 0 then begin
        first.(r) <- !pos;
        order.(!count) <- r;
        incr count
      end;
      last.(r) <- !pos
    end
  in
  List.iter
    (fun (item : Lblock.item) ->
      (match item with
       | L _ -> ()
       | I insn ->
         Hinsn.iter_regs ~def:touch ~use:touch insn);
      incr pos)
    items;
  (first, last, order, !count)

(* The temporaries as a stack whose top (the last element) is the first
   handed out. *)
let temp_stack = Array.of_list (List.rev Hinsn.temp_regs)

(* One allocation attempt: returns [Ok mapping] or [Error vregs_to_spill].
   The free temporaries are a stack, [free.(0 .. nfree - 1)]; the vregs
   currently owning one are [active.(0 .. nactive - 1)], oldest first (at
   most one per temporary, so scanning them is constant work). *)
let try_assign nregs items =
  let first, last, order, count = intervals nregs items in
  let mapping = Array.make nregs (-1) in
  let free = Array.copy temp_stack and nfree = ref (Array.length temp_stack) in
  let active = Array.make (Array.length temp_stack) 0 and nactive = ref 0 in
  (* Keep the active vregs other than [drop] that end at or after
     [start], in order. *)
  let compact ~drop ~start =
    let m = ref 0 in
    for i = 0 to !nactive - 1 do
      let a = active.(i) in
      if a <> drop && last.(a) >= start then begin
        active.(!m) <- a;
        incr m
      end
    done;
    nactive := !m
  in
  let spills = ref [] in
  for k = 0 to count - 1 do
    let v = order.(k) in
    (* Expire intervals that ended before this one starts, freeing their
       registers newest first. *)
    let expired = ref false in
    for i = !nactive - 1 downto 0 do
      let a = active.(i) in
      if last.(a) < first.(v) then begin
        free.(!nfree) <- mapping.(a);
        incr nfree;
        expired := true
      end
    done;
    if !expired then compact ~drop:(-1) ~start:first.(v);
    if !nfree > 0 then begin
      decr nfree;
      mapping.(v) <- free.(!nfree);
      active.(!nactive) <- v;
      incr nactive
    end
    else begin
      (* Spill the interval with the furthest end (this one or an active
         one, newest first; the earliest in that order on a tie).
         Spilling an active interval frees its register. *)
      let victim = ref v in
      for i = !nactive - 1 downto 0 do
        if last.(active.(i)) > last.(!victim) then victim := active.(i)
      done;
      let victim = !victim in
      spills := victim :: !spills;
      if victim <> v then begin
        mapping.(v) <- mapping.(victim);
        mapping.(victim) <- -1;
        compact ~drop:victim ~start:0;
        active.(!nactive) <- v;
        incr nactive
      end
    end
  done;
  if !spills = [] then Ok mapping else Error !spills

(* Rewrite spilled vregs into loads/stores around each instruction.
   slot.(v) is spilled vreg v's offset in the scratch area, or -1. *)
let rewrite_spills slot items =
  let s1, s2 = shuttle_regs in
  let spilled r = slot.(r) >= 0 in
  (* The spilled sources of the current instruction, lower id first, and
     whether it writes a spilled vreg. *)
  let a = ref (-1) and b = ref (-1) and def = ref false in
  let add_use r =
    if spilled r && r <> !a && r <> !b then
      if !a < 0 then a := r
      else if !b < 0 then begin
        if r < !a then begin
          b := !a;
          a := r
        end
        else b := r
      end
      else raise (Alloc_error "more than two spilled sources")
  in
  let note_def r = if spilled r then def := true in
  (* A source gets its own shuttle; a pure def goes through s1. *)
  let rename r =
    if not (spilled r) then r else if r = !b then s2 else s1
  in
  let load v s = Lblock.I (Hinsn.Load (W32, s, scratch_base_reg, slot.(v))) in
  let store_def acc v =
    if spilled v then
      Lblock.I (Hinsn.Store (W32, rename v, scratch_base_reg, slot.(v))) :: acc
    else acc
  in
  List.fold_left
    (fun acc (item : Lblock.item) ->
      match item with
      | L _ -> item :: acc
      | I insn ->
        a := -1;
        b := -1;
        def := false;
        Hinsn.iter_regs ~def:note_def ~use:add_use insn;
        if !a < 0 && not !def then item :: acc
        else begin
          let acc = if !a >= 0 then load !a s1 :: acc else acc in
          let acc = if !b >= 0 then load !b s2 :: acc else acc in
          let acc = Lblock.I (Hinsn.map_regs rename insn) :: acc in
          List.fold_left store_def acc (Hinsn.defs insn)
        end)
    [] items
  |> List.rev

let rec allocate_n nregs items =
  match try_assign nregs items with
  | Ok mapping ->
    let rename r =
      if not (is_vreg r) then r
      else if mapping.(r) >= 0 then mapping.(r)
      else raise (Alloc_error (Printf.sprintf "unmapped vreg %d" r))
    in
    Lblock.map
      (fun (item : Lblock.item) ->
        match item with
        | I insn when Hinsn.max_reg insn >= Hinsn.first_vreg ->
          Lblock.I (Hinsn.map_regs rename insn)
        | L _ | I _ -> item)
      items
  | Error spills ->
    (* Slots in increasing vreg order. *)
    let slot = Array.make nregs (-1) in
    List.iter (fun v -> slot.(v) <- 0) spills;
    let next = ref 0 in
    for v = 0 to nregs - 1 do
      if slot.(v) >= 0 then begin
        slot.(v) <- !next * 4;
        incr next
      end
    done;
    allocate_n nregs (rewrite_spills slot items)

let allocate items = allocate_n (Lblock.reg_count items) items
