open Vat_host

let scratch_base_reg = 26
let shuttle_regs = (27, 28)

exception Alloc_error of string

let is_vreg r = r >= Hinsn.first_vreg

(* Workspace slots. *)
let ops_slot, first_slot, last_slot, order_slot, mapping_slot, vreg_slot =
  (0, 1, 2, 3, 4, 5)

(* Live interval of each vreg: [first, last] item positions, by register
   id, and the vregs in order of first mention (so by start), in
   [order.(0 .. count - 1)]; [vreg.(k)] is 1 when item [k] is an
   instruction naming a vreg, 0 when it is one naming none.
   Forward-only internal branches make this exact (a value cannot flow
   backward). *)
let intervals (b : Lblock.t) =
  let first = Workspace.cleared first_slot b.nregs (-1) in
  let last = Workspace.ints last_slot b.nregs in
  let order = Workspace.ints order_slot b.nregs in
  let vreg = Workspace.ints vreg_slot b.len in
  let ops = Workspace.ints ops_slot 5 in
  let count = ref 0 in
  for k = 0 to b.len - 1 do
    match b.items.(k) with
    | L _ -> ()
    | I insn ->
      Hinsn.operands insn ops;
      vreg.(k) <- 0;
      for j = 0 to 4 do
        let r = ops.(j) in
        if is_vreg r then begin
          vreg.(k) <- 1;
          if first.(r) < 0 then begin
            first.(r) <- k;
            order.(!count) <- r;
            incr count
          end;
          last.(r) <- k
        end
      done
  done;
  (first, last, order, !count)

(* The temporaries as a stack whose top (the last element) is the first
   handed out. *)
let temp_stack = Array.of_list (List.rev Hinsn.temp_regs)

(* One allocation attempt: returns [Ok mapping] or [Error vregs_to_spill].
   The free temporaries are a stack, [free.(0 .. nfree - 1)]; the vregs
   currently owning one are [active.(0 .. nactive - 1)], oldest first (at
   most one per temporary, so scanning them is constant work). *)
let try_assign (b : Lblock.t) =
  let first, last, order, count = intervals b in
  let mapping = Workspace.cleared mapping_slot b.nregs (-1) in
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

(* Rewrite spilled vregs into loads/stores around each instruction,
   into a new item array. slot.(v) is spilled vreg v's offset in the
   scratch area, or -1. *)
let rewrite_spills slot (body : Lblock.t) =
  let s1, s2 = shuttle_regs in
  let spilled r = r >= 0 && slot.(r) >= 0 in
  let ops = Workspace.ints ops_slot 5 in
  let out = Lblock.create () in
  let load v s = Lblock.I (Hinsn.Load (W32, s, scratch_base_reg, slot.(v))) in
  for k = 0 to body.len - 1 do
    match body.items.(k) with
    | L _ as item -> Lblock.push out item
    | I insn as item ->
      Hinsn.operands insn ops;
      (* The spilled sources, lower id first, and whether it writes a
         spilled vreg. *)
      let a = ref (-1) and b = ref (-1) in
      for j = 2 to 4 do
        let r = ops.(j) in
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
      done;
      if !a < 0 && not (spilled ops.(0) || spilled ops.(1)) then
        Lblock.push out item
      else begin
        (* A source gets its own shuttle; a pure def goes through s1. *)
        let rename r =
          if not (spilled r) then r else if r = !b then s2 else s1
        in
        if !a >= 0 then Lblock.push out (load !a s1);
        if !b >= 0 then Lblock.push out (load !b s2);
        Lblock.push out (I (Hinsn.map_regs rename insn));
        for j = 0 to 1 do
          let v = ops.(j) in
          if spilled v then
            Lblock.push out
              (I (Hinsn.Store (W32, rename v, scratch_base_reg, slot.(v))))
        done
      end
  done;
  body.items <- out.items;
  body.len <- out.len;
  body.ninsns <- out.ninsns

let rec allocate (b : Lblock.t) =
  match try_assign b with
  | Ok mapping ->
    let rename r =
      if not (is_vreg r) then r
      else if mapping.(r) >= 0 then mapping.(r)
      else raise (Alloc_error (Printf.sprintf "unmapped vreg %d" r))
    in
    (* The items [intervals] marked as naming a vreg. *)
    let vreg = Workspace.ints vreg_slot b.len in
    for k = 0 to b.len - 1 do
      match b.items.(k) with
      | I insn when vreg.(k) = 1 ->
        b.items.(k) <- I (Hinsn.map_regs rename insn)
      | L _ | I _ -> ()
    done
  | Error spills ->
    (* Slots in increasing vreg order. *)
    let slot = Array.make b.nregs (-1) in
    List.iter (fun v -> slot.(v) <- 0) spills;
    let next = ref 0 in
    for v = 0 to b.nregs - 1 do
      if slot.(v) >= 0 then begin
        slot.(v) <- !next * 4;
        incr next
      end
    done;
    rewrite_spills slot b;
    allocate b
