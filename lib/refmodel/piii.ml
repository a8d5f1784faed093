open Vat_guest
open Vat_tiled

type result = {
  outcome : Interp.outcome;
  cycles : int;
  instructions : int;
  l1_misses : int;
  l2_misses : int;
  mispredicts : int;
}

(* Fixed-point cycle accumulation: 1000 units = 1 cycle. *)
let base_cost = 769 (* 1/1.3 *)
let l2_hit_cost = 7_000
let mem_cost = 40_000
let mispredict_cost = 12_000
let mul_cost = 2_000
let div_cost = 20_000

type state = {
  l1 : Cache.t;
  l2 : Cache.t;
  predictor : int array; (* 2-bit counters *)
  ras : int array;
  mutable ras_top : int;
  mutable last_indirect : int;
  mutable cycles_k : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable mispredicts : int;
}

let predictor_slots = 4096

let mem_access st =
  (fun addr ->
    let r1 = Cache.access st.l1 ~addr ~write:false in
    if not r1.hit then begin
      st.l1_misses <- st.l1_misses + 1;
      let r2 = Cache.access st.l2 ~addr ~write:false in
      if r2.hit then st.cycles_k <- st.cycles_k + l2_hit_cost
      else begin
        st.l2_misses <- st.l2_misses + 1;
        st.cycles_k <- st.cycles_k + mem_cost
      end
    end)

(* Count the data-memory accesses an instruction performs. *)
let operand_mem (op : int Insn.operand) = match op with Insn.Mem _ -> 1 | _ -> 0

let target_mem (t : int Insn.target) =
  match t with Insn.Indirect op -> operand_mem op | Insn.Direct _ -> 0

let data_accesses (insn : int Insn.t) =
  match insn with
  | Mov (d, s) | Movb (d, s) -> operand_mem d + operand_mem s
  | Movzxb (_, s) | Movsxb (_, s) -> operand_mem s
  | Lea _ -> 0
  | Alu (_, d, s) -> operand_mem d + operand_mem s
  | Unop (_, d) -> 2 * operand_mem d
  | Shift (_, d, _) -> 2 * operand_mem d
  | Imul (_, s) | Mul s | Div s | Idiv s -> operand_mem s
  | Cdq -> 0
  | Push s -> 1 + operand_mem s
  | Pop d -> 1 + operand_mem d
  | Xchg _ -> 0
  | Setcc (_, d) -> operand_mem d
  | Cmovcc (_, _, s) -> operand_mem s
  | Rep_movsb | Rep_stosb -> 0 (* charged per element in the hook *)
  | Jmp t -> target_mem t
  | Jcc _ -> 0
  | Call t -> 1 + target_mem t
  | Ret -> 1
  | Int _ -> 0
  | Nop | Hlt -> 0

let run ?input ?(fuel = 200_000_000) prog =
  let interp = Interp.create ?input prog in
  let st =
    { l1 = Cache.create ~size_bytes:(16 * 1024) ~ways:4 ~line_bytes:32;
      l2 = Cache.create ~size_bytes:(256 * 1024) ~ways:8 ~line_bytes:32;
      predictor = Array.make predictor_slots 1;
      ras = Array.make 16 0;
      ras_top = 0;
      last_indirect = -1;
      cycles_k = 0;
      l1_misses = 0;
      l2_misses = 0;
      mispredicts = 0 }
  in
  let access = mem_access st in
  let hook (insn : int Insn.t) =
    st.cycles_k <- st.cycles_k + base_cost;
    (* Data-side cache traffic: model accesses at the ESP/EIP-independent
       granularity of "one line touch per operand" using the interpreter's
       registers for the address when cheaply available; approximate other
       operand addresses by hashing the instruction (the cache effects that
       matter — working-set size — come from real load/store addresses
       below). *)
    (match insn with
     | Push _ | Pop _ | Call _ | Ret ->
       access (Interp.reg interp ESP)
     | _ -> ());
    let extra_accesses = data_accesses insn in
    if extra_accesses > 0 then begin
      (* Use the resolved effective address for single-memory-operand
         forms: recompute from the register file. *)
      let ea (m : int Insn.mem_operand) =
        let b = match m.base with Some r -> Interp.reg interp r | None -> 0 in
        let x =
          match m.index with
          | Some (r, s) -> Interp.reg interp r * Insn.scale_factor s
          | None -> 0
        in
        (b + x + m.disp) land 0xFFFFFFFF
      in
      let touch_operand (op : int Insn.operand) =
        match op with Insn.Mem m -> access (ea m) | _ -> ()
      in
      (match insn with
       | Mov (d, s) | Movb (d, s) | Alu (_, d, s) ->
         touch_operand d;
         touch_operand s
       | Movzxb (_, s) | Movsxb (_, s) | Imul (_, s) | Mul s | Div s
       | Idiv s | Push s -> touch_operand s
       | Unop (_, d) | Shift (_, d, _) | Setcc (_, d) | Pop d -> touch_operand d
       | Cmovcc (_, _, s) -> touch_operand s
       | Jmp (Indirect op) | Call (Indirect op) -> touch_operand op
       | Lea _ | Cdq | Xchg _ | Rep_movsb | Rep_stosb | Jmp (Direct _)
       | Jcc _ | Call (Direct _) | Ret | Int _ | Nop | Hlt -> ())
    end;
    (* Long-latency units. *)
    (match insn with
     | Imul _ | Mul _ -> st.cycles_k <- st.cycles_k + mul_cost
     | Div _ | Idiv _ -> st.cycles_k <- st.cycles_k + div_cost
     | Rep_movsb | Rep_stosb ->
       (* One cycle per element plus a line touch per 32 bytes. *)
       let n = Interp.reg interp ECX in
       st.cycles_k <- st.cycles_k + (n * 1000);
       let src = Interp.reg interp ESI and dst = Interp.reg interp EDI in
       let lines = (n + 31) / 32 in
       for l = 0 to lines - 1 do
         (match insn with
          | Rep_movsb -> access (src + (l * 32))
          | _ -> ());
         access (dst + (l * 32))
       done
     | _ -> ());
    (* Branch prediction. *)
    let eip = Interp.eip interp in
    (match insn with
     | Jcc (c, _) ->
       let taken = Flags.eval_cond c ~flags:(Interp.flags interp) in
       let slot = (eip lsr 1) land (predictor_slots - 1) in
       let counter = st.predictor.(slot) in
       let predicted_taken = counter >= 2 in
       if predicted_taken <> taken then begin
         st.mispredicts <- st.mispredicts + 1;
         st.cycles_k <- st.cycles_k + mispredict_cost
       end;
       st.predictor.(slot) <-
         (if taken then min 3 (counter + 1) else max 0 (counter - 1))
     | Call _ ->
       (* Push the return address on the RAS (address after this call is
          not directly available; the stack depth approximation is what
          matters for hit/miss). *)
       st.ras.(st.ras_top land 15) <- Interp.reg interp ESP;
       st.ras_top <- st.ras_top + 1
     | Ret ->
       if st.ras_top > 0 then begin
         st.ras_top <- st.ras_top - 1;
         let expected = st.ras.(st.ras_top land 15) in
         if expected <> Interp.reg interp ESP then begin
           st.mispredicts <- st.mispredicts + 1;
           st.cycles_k <- st.cycles_k + mispredict_cost
         end
       end
       else begin
         st.mispredicts <- st.mispredicts + 1;
         st.cycles_k <- st.cycles_k + mispredict_cost
       end
     | Jmp (Indirect _) ->
       if st.last_indirect <> eip then begin
         st.mispredicts <- st.mispredicts + 1;
         st.cycles_k <- st.cycles_k + mispredict_cost
       end;
       st.last_indirect <- eip
     | _ -> ())
  in
  Interp.observe interp hook;
  let outcome = Interp.run ~fuel interp in
  { outcome;
    cycles = max 1 (st.cycles_k / 1000);
    instructions = Interp.instret interp;
    l1_misses = st.l1_misses;
    l2_misses = st.l2_misses;
    mispredicts = st.mispredicts }
