open Vat_guest
open Vat_host
open Vat_ir

let guest_pin r = Hinsn.guest_reg_base + Insn.reg_index r

let fl = Hinsn.flags_reg

let live_out_regs =
  let pins = List.init 9 (fun i -> Hinsn.guest_reg_base + i) in
  (* r8..r15 guest GPRs, r16 flags, r30 terminator link. *)
  pins @ [ Block.term_reg ]

type env = { e : Emit.t; cfg : Config.t }

let ins env i = Emit.ins env.e i
let vreg env = Emit.vreg env.e

(* ------------------------------------------------------------------ *)
(* Operand access                                                      *)
(* ------------------------------------------------------------------ *)

(* Effective address of a guest memory operand, in a fresh vreg (or the
   pinned base register directly when the operand is just [base]). *)
let ea env ({ base; index; disp } : int Insn.mem_operand) =
  let base_reg = Option.map guest_pin base in
  let index_reg =
    match index with
    | None -> None
    | Some (r, s) ->
      let pr = guest_pin r in
      (match Insn.scale_factor s with
       | 1 -> Some pr
       | factor ->
         let t = vreg env in
         ins env (Shifti (Sll, t, pr, (* log2 *)
                          match factor with 2 -> 1 | 4 -> 2 | _ -> 3));
         Some t)
  in
  let sum =
    match (base_reg, index_reg) with
    | Some b, Some x ->
      let t = vreg env in
      ins env (Alu3 (Add, t, b, x));
      t
    | Some b, None -> b
    | None, Some x -> x
    | None, None -> Hinsn.r0
  in
  if disp = 0 then sum
  else begin
    let t = vreg env in
    Emit.addi_big env.e ~dst:t ~src:sum disp;
    t
  end

(* Value of a 32-bit operand; for memory operands also returns the address
   register so a read-modify-write destination reuses it. *)
let read_loc env (op : int Insn.operand) =
  match op with
  | Reg r -> (guest_pin r, None)
  | Imm v -> (Emit.li_reg env.e v, None)
  | Mem m ->
    let a = ea env m in
    let t = vreg env in
    ins env (Load (W32, t, a, 0));
    (t, Some a)

let read_operand env op = fst (read_loc env op)

(* Write a 32-bit result back to a destination, reusing a precomputed
   address when the destination was already read. *)
let write_loc env (op : int Insn.operand) ~addr value =
  match op with
  | Reg r -> Emit.mov env.e ~dst:(guest_pin r) ~src:value
  | Mem m ->
    let a = match addr with Some a -> a | None -> ea env m in
    ins env (Store (W32, value, a, 0))
  | Imm _ -> invalid_arg "write_loc: immediate destination"

let read_byte env (op : int Insn.operand) =
  match op with
  | Reg r ->
    let t = vreg env in
    ins env (Ext (t, guest_pin r, 0, 8));
    t
  | Imm v -> Emit.li_reg env.e (v land 0xFF)
  | Mem m ->
    let a = ea env m in
    let t = vreg env in
    ins env (Load (W8, t, a, 0));
    t

let write_byte env (op : int Insn.operand) value =
  match op with
  | Reg r -> ins env (Ins (guest_pin r, value, 0, 8))
  | Mem m ->
    let a = ea env m in
    ins env (Store (W8, value, a, 0))
  | Imm _ -> invalid_arg "write_byte: immediate destination"

(* ------------------------------------------------------------------ *)
(* Flag materialization                                                *)
(* ------------------------------------------------------------------ *)

let set_flag env pos v = ins env (Ins (fl, v, pos, 1))
let clear_flag env pos = ins env (Ins (fl, Hinsn.r0, pos, 1))

let emit_zf env res =
  let t = vreg env in
  ins env (Alui (Sltiu, t, res, 1));
  set_flag env Flags.zf_pos t

let emit_sf env res =
  let t = vreg env in
  ins env (Shifti (Srl, t, res, 31));
  set_flag env Flags.sf_pos t

(* PF: even parity of the low byte — xor-fold then invert bit 0. *)
let emit_pf env res =
  let b = vreg env in
  ins env (Alui (Andi, b, res, 0xFF));
  let t = vreg env in
  ins env (Shifti (Srl, t, b, 4));
  ins env (Alu3 (Xor, b, b, t));
  ins env (Shifti (Srl, t, b, 2));
  ins env (Alu3 (Xor, b, b, t));
  ins env (Shifti (Srl, t, b, 1));
  ins env (Alu3 (Xor, b, b, t));
  ins env (Alui (Xori, b, b, 1));
  ins env (Alui (Andi, b, b, 1));
  set_flag env Flags.pf_pos b

let emit_szp env mask res =
  if mask land Flags.zf_bit <> 0 then emit_zf env res;
  if mask land Flags.sf_bit <> 0 then emit_sf env res;
  if mask land Flags.pf_bit <> 0 then emit_pf env res

(* OF of a + b (+carry) -> res: (~(a^b) & (a^res)) >> 31 *)
let emit_of_add env a b res =
  let t1 = vreg env and t2 = vreg env in
  ins env (Alu3 (Xor, t1, a, res));
  ins env (Alu3 (Xor, t2, a, b));
  ins env (Alu3 (Nor, t2, t2, Hinsn.r0));
  ins env (Alu3 (And, t1, t1, t2));
  ins env (Shifti (Srl, t1, t1, 31));
  set_flag env Flags.of_pos t1

(* OF of a - b (-borrow) -> res: ((a^b) & (a^res)) >> 31 *)
let emit_of_sub env a b res =
  let t1 = vreg env and t2 = vreg env in
  ins env (Alu3 (Xor, t1, a, b));
  ins env (Alu3 (Xor, t2, a, res));
  ins env (Alu3 (And, t1, t1, t2));
  ins env (Shifti (Srl, t1, t1, 31));
  set_flag env Flags.of_pos t1

let read_cf env =
  let c = vreg env in
  ins env (Ext (c, fl, Flags.cf_pos, 1));
  c

(* ------------------------------------------------------------------ *)
(* Condition evaluation (0/1 result)                                   *)
(* ------------------------------------------------------------------ *)

let flag_bit env pos =
  let t = vreg env in
  ins env (Ext (t, fl, pos, 1));
  t

let negate env t =
  let n = vreg env in
  ins env (Alui (Xori, n, t, 1));
  n

let rec cond_val env (c : Insn.cond) =
  match c with
  | E -> flag_bit env Flags.zf_pos
  | NE -> negate env (cond_val env E)
  | S -> flag_bit env Flags.sf_pos
  | NS -> negate env (cond_val env S)
  | O -> flag_bit env Flags.of_pos
  | NO -> negate env (cond_val env O)
  | P -> flag_bit env Flags.pf_pos
  | NP -> negate env (cond_val env P)
  | B -> flag_bit env Flags.cf_pos
  | AE -> negate env (cond_val env B)
  | L ->
    let s = flag_bit env Flags.sf_pos and o = flag_bit env Flags.of_pos in
    let t = vreg env in
    ins env (Alu3 (Xor, t, s, o));
    t
  | GE -> negate env (cond_val env L)
  | LE ->
    let l = cond_val env L and z = flag_bit env Flags.zf_pos in
    let t = vreg env in
    ins env (Alu3 (Or, t, l, z));
    t
  | G -> negate env (cond_val env LE)
  | BE ->
    let cfb = flag_bit env Flags.cf_pos and z = flag_bit env Flags.zf_pos in
    let t = vreg env in
    ins env (Alu3 (Or, t, cfb, z));
    t
  | A -> negate env (cond_val env BE)

(* ------------------------------------------------------------------ *)
(* Instruction lowering                                                *)
(* ------------------------------------------------------------------ *)

let lower_alu env (op : Insn.alu) dst src ~mask =
  let a, addr = read_loc env dst in
  let b = read_operand env src in
  let res = vreg env in
  (match op with
   | Add ->
     ins env (Alu3 (Add, res, a, b));
     if mask land Flags.cf_bit <> 0 then begin
       let t = vreg env in
       ins env (Alu3 (Sltu, t, res, a));
       set_flag env Flags.cf_pos t
     end;
     if mask land Flags.of_bit <> 0 then emit_of_add env a b res
   | Adc ->
     let c = read_cf env in
     let t_ab = vreg env in
     ins env (Alu3 (Add, t_ab, a, b));
     ins env (Alu3 (Add, res, t_ab, c));
     if mask land Flags.cf_bit <> 0 then begin
       let c1 = vreg env and c2 = vreg env in
       ins env (Alu3 (Sltu, c1, t_ab, a));
       ins env (Alu3 (Sltu, c2, res, t_ab));
       ins env (Alu3 (Or, c1, c1, c2));
       set_flag env Flags.cf_pos c1
     end;
     if mask land Flags.of_bit <> 0 then emit_of_add env a b res
   | Sub | Cmp ->
     ins env (Alu3 (Sub, res, a, b));
     if mask land Flags.cf_bit <> 0 then begin
       let t = vreg env in
       ins env (Alu3 (Sltu, t, a, b));
       set_flag env Flags.cf_pos t
     end;
     if mask land Flags.of_bit <> 0 then emit_of_sub env a b res
   | Sbb ->
     let c = read_cf env in
     let t_ab = vreg env in
     ins env (Alu3 (Sub, t_ab, a, b));
     ins env (Alu3 (Sub, res, t_ab, c));
     if mask land Flags.cf_bit <> 0 then begin
       let c1 = vreg env and c2 = vreg env in
       ins env (Alu3 (Sltu, c1, a, b));
       ins env (Alu3 (Sltu, c2, t_ab, c));
       ins env (Alu3 (Or, c1, c1, c2));
       set_flag env Flags.cf_pos c1
     end;
     if mask land Flags.of_bit <> 0 then emit_of_sub env a b res
   | And | Test ->
     ins env (Alu3 (And, res, a, b));
     if mask land Flags.cf_bit <> 0 then clear_flag env Flags.cf_pos;
     if mask land Flags.of_bit <> 0 then clear_flag env Flags.of_pos
   | Or ->
     ins env (Alu3 (Or, res, a, b));
     if mask land Flags.cf_bit <> 0 then clear_flag env Flags.cf_pos;
     if mask land Flags.of_bit <> 0 then clear_flag env Flags.of_pos
   | Xor ->
     ins env (Alu3 (Xor, res, a, b));
     if mask land Flags.cf_bit <> 0 then clear_flag env Flags.cf_pos;
     if mask land Flags.of_bit <> 0 then clear_flag env Flags.of_pos);
  emit_szp env mask res;
  if Insn.alu_writes_dst op then write_loc env dst ~addr res

let lower_unop env (op : Insn.unop) dst ~mask =
  let a, addr = read_loc env dst in
  match op with
  | Inc ->
    let res = vreg env in
    ins env (Alui (Addi, res, a, 1));
    if mask land Flags.of_bit <> 0 then begin
      let one = Emit.li_reg env.e 1 in
      emit_of_add env a one res
    end;
    emit_szp env mask res;
    write_loc env dst ~addr res
  | Dec ->
    let res = vreg env in
    ins env (Alui (Addi, res, a, -1));
    if mask land Flags.of_bit <> 0 then begin
      let one = Emit.li_reg env.e 1 in
      emit_of_sub env a one res
    end;
    emit_szp env mask res;
    write_loc env dst ~addr res
  | Neg ->
    let res = vreg env in
    ins env (Alu3 (Sub, res, Hinsn.r0, a));
    if mask land Flags.cf_bit <> 0 then begin
      let t = vreg env in
      ins env (Alu3 (Sltu, t, Hinsn.r0, a));
      set_flag env Flags.cf_pos t
    end;
    if mask land Flags.of_bit <> 0 then emit_of_sub env Hinsn.r0 a res;
    emit_szp env mask res;
    write_loc env dst ~addr res
  | Not ->
    let res = vreg env in
    ins env (Alu3 (Nor, res, a, Hinsn.r0));
    write_loc env dst ~addr res

(* Shift flag helpers for a KNOWN count n >= 1. *)
let shift_flags_imm env (sh : Insn.shift) ~mask ~orig ~res n =
  let bit_of reg pos =
    let t = vreg env in
    if pos = 0 then ins env (Alui (Andi, t, reg, 1))
    else begin
      ins env (Shifti (Srl, t, reg, pos));
      ins env (Alui (Andi, t, t, 1))
    end;
    t
  in
  match sh with
  | Shl ->
    let cfv =
      if mask land (Flags.cf_bit lor Flags.of_bit) <> 0 then begin
        let t = bit_of orig (32 - n) in
        if mask land Flags.cf_bit <> 0 then set_flag env Flags.cf_pos t;
        Some t
      end
      else None
    in
    (match cfv with
     | Some t when mask land Flags.of_bit <> 0 ->
       let msb = vreg env in
       ins env (Shifti (Srl, msb, res, 31));
       let o = vreg env in
       ins env (Alu3 (Xor, o, msb, t));
       set_flag env Flags.of_pos o
     | _ -> ());
    emit_szp env mask res
  | Shr ->
    if mask land Flags.cf_bit <> 0 then
      set_flag env Flags.cf_pos (bit_of orig (n - 1));
    if mask land Flags.of_bit <> 0 then begin
      let t = vreg env in
      ins env (Shifti (Srl, t, orig, 31));
      set_flag env Flags.of_pos t
    end;
    emit_szp env mask res
  | Sar ->
    if mask land Flags.cf_bit <> 0 then begin
      let t = vreg env in
      ins env (Shifti (Sra, t, orig, n - 1));
      ins env (Alui (Andi, t, t, 1));
      set_flag env Flags.cf_pos t
    end;
    if mask land Flags.of_bit <> 0 then clear_flag env Flags.of_pos;
    emit_szp env mask res
  | Rol ->
    if mask land Flags.cf_bit <> 0 then begin
      let t = vreg env in
      ins env (Alui (Andi, t, res, 1));
      set_flag env Flags.cf_pos t
    end;
    if mask land Flags.of_bit <> 0 then begin
      let msb = vreg env and b0 = vreg env in
      ins env (Shifti (Srl, msb, res, 31));
      ins env (Alui (Andi, b0, res, 1));
      ins env (Alu3 (Xor, msb, msb, b0));
      set_flag env Flags.of_pos msb
    end
  | Ror ->
    if mask land Flags.cf_bit <> 0 then begin
      let t = vreg env in
      ins env (Shifti (Srl, t, res, 31));
      set_flag env Flags.cf_pos t
    end;
    if mask land Flags.of_bit <> 0 then begin
      let b31 = vreg env and b30 = vreg env in
      ins env (Shifti (Srl, b31, res, 31));
      ins env (Shifti (Srl, b30, res, 30));
      ins env (Alui (Andi, b30, b30, 1));
      ins env (Alu3 (Xor, b31, b31, b30));
      set_flag env Flags.of_pos b31
    end

let rotate_imm env (sh : Insn.shift) a n =
  let res = vreg env in
  let t1 = vreg env and t2 = vreg env in
  (match sh with
   | Rol ->
     ins env (Shifti (Sll, t1, a, n));
     ins env (Shifti (Srl, t2, a, 32 - n));
     ins env (Alu3 (Or, res, t1, t2))
   | Ror ->
     ins env (Shifti (Srl, t1, a, n));
     ins env (Shifti (Sll, t2, a, 32 - n));
     ins env (Alu3 (Or, res, t1, t2))
   | Shl | Shr | Sar -> invalid_arg "rotate_imm");
  res

let lower_shift env (sh : Insn.shift) dst amount ~mask =
  match amount with
  | Insn.Sh_imm 0 -> () (* no result change, no flag change *)
  | Insn.Sh_imm n ->
    let a, addr = read_loc env dst in
    let res =
      match sh with
      | Shl ->
        let r = vreg env in
        ins env (Shifti (Sll, r, a, n));
        r
      | Shr ->
        let r = vreg env in
        ins env (Shifti (Srl, r, a, n));
        r
      | Sar ->
        let r = vreg env in
        ins env (Shifti (Sra, r, a, n));
        r
      | Rol | Ror -> rotate_imm env sh a n
    in
    shift_flags_imm env sh ~mask ~orig:a ~res n;
    write_loc env dst ~addr res
  | Insn.Sh_cl ->
    let a, addr = read_loc env dst in
    let count = vreg env in
    ins env (Alui (Andi, count, guest_pin ECX, 31));
    let res = vreg env in
    Emit.mov env.e ~dst:res ~src:a;
    let skip = Emit.lab env.e in
    ins env (Branch (Beq, count, Hinsn.r0, skip));
    (* Body: count in 1..31. *)
    let hostop : Hinsn.shift option =
      match sh with Shl -> Some Sll | Shr -> Some Srl | Sar -> Some Sra
                  | Rol | Ror -> None
    in
    (match hostop with
     | Some op -> ins env (Shiftv (op, res, a, count))
     | None ->
       let inv = vreg env in
       let thirty2 = Emit.li_reg env.e 32 in
       ins env (Alu3 (Sub, inv, thirty2, count));
       let t1 = vreg env and t2 = vreg env in
       (match sh with
        | Rol ->
          ins env (Shiftv (Sll, t1, a, count));
          ins env (Shiftv (Srl, t2, a, inv))
        | Ror ->
          ins env (Shiftv (Srl, t1, a, count));
          ins env (Shiftv (Sll, t2, a, inv))
        | Shl | Shr | Sar -> assert false);
       ins env (Alu3 (Or, res, t1, t2)));
    (* Flags with a dynamic count. *)
    let bitv reg shiftop amtreg =
      let t = vreg env in
      ins env (Shiftv (shiftop, t, reg, amtreg));
      ins env (Alui (Andi, t, t, 1));
      t
    in
    (match sh with
     | Shl ->
       if mask land (Flags.cf_bit lor Flags.of_bit) <> 0 then begin
         let inv = vreg env in
         let thirty2 = Emit.li_reg env.e 32 in
         ins env (Alu3 (Sub, inv, thirty2, count));
         let cfv = bitv a Srl inv in
         if mask land Flags.cf_bit <> 0 then set_flag env Flags.cf_pos cfv;
         if mask land Flags.of_bit <> 0 then begin
           let msb = vreg env in
           ins env (Shifti (Srl, msb, res, 31));
           ins env (Alu3 (Xor, msb, msb, cfv));
           set_flag env Flags.of_pos msb
         end
       end;
       emit_szp env mask res
     | Shr ->
       if mask land Flags.cf_bit <> 0 then begin
         let cm1 = vreg env in
         ins env (Alui (Addi, cm1, count, -1));
         set_flag env Flags.cf_pos (bitv a Srl cm1)
       end;
       if mask land Flags.of_bit <> 0 then begin
         let t = vreg env in
         ins env (Shifti (Srl, t, a, 31));
         set_flag env Flags.of_pos t
       end;
       emit_szp env mask res
     | Sar ->
       if mask land Flags.cf_bit <> 0 then begin
         let cm1 = vreg env in
         ins env (Alui (Addi, cm1, count, -1));
         set_flag env Flags.cf_pos (bitv a Sra cm1)
       end;
       if mask land Flags.of_bit <> 0 then clear_flag env Flags.of_pos;
       emit_szp env mask res
     | Rol | Ror -> shift_flags_imm env sh ~mask ~orig:a ~res 1);
    Emit.place env.e skip;
    write_loc env dst ~addr res

let lower_body_insn env (insn : int Insn.t) ~mask =
  match insn with
  | Mov (d, s) ->
    let v = read_operand env s in
    write_loc env d ~addr:None v
  | Movb (d, s) ->
    let v = read_byte env s in
    write_byte env d v
  | Movzxb (rd, s) ->
    let v = read_byte env s in
    Emit.mov env.e ~dst:(guest_pin rd) ~src:v
  | Movsxb (rd, s) -> begin
    match s with
    | Mem m ->
      let a = ea env m in
      ins env (Load (W8s, guest_pin rd, a, 0))
    | Reg _ | Imm _ ->
      let v = read_byte env s in
      let t = vreg env in
      ins env (Shifti (Sll, t, v, 24));
      ins env (Shifti (Sra, guest_pin rd, t, 24))
  end
  | Lea (rd, m) ->
    let a = ea env m in
    Emit.mov env.e ~dst:(guest_pin rd) ~src:a
  | Alu (op, d, s) -> lower_alu env op d s ~mask
  | Unop (op, d) -> lower_unop env op d ~mask
  | Shift (sh, d, amt) -> lower_shift env sh d amt ~mask
  | Imul (rd, s) ->
    let a = guest_pin rd in
    let b = read_operand env s in
    let res = vreg env in
    ins env (Alu3 (Mul, res, a, b));
    if mask land (Flags.cf_bit lor Flags.of_bit) <> 0 then begin
      let hi = vreg env and sra = vreg env in
      ins env (Alu3 (Mulh, hi, a, b));
      ins env (Shifti (Sra, sra, res, 31));
      let ne = vreg env in
      ins env (Alu3 (Xor, ne, hi, sra));
      let bit = vreg env in
      ins env (Alu3 (Sltu, bit, Hinsn.r0, ne));
      if mask land Flags.cf_bit <> 0 then set_flag env Flags.cf_pos bit;
      if mask land Flags.of_bit <> 0 then set_flag env Flags.of_pos bit
    end;
    (* ZF/SF/PF are pinned to zero after imul (see Vat_guest.Flags). *)
    if mask land Flags.zf_bit <> 0 then clear_flag env Flags.zf_pos;
    if mask land Flags.sf_bit <> 0 then clear_flag env Flags.sf_pos;
    if mask land Flags.pf_bit <> 0 then clear_flag env Flags.pf_pos;
    Emit.mov env.e ~dst:(guest_pin rd) ~src:res
  | Mul s ->
    let b = read_operand env s in
    ins env (Mul64 b);
    if mask land (Flags.cf_bit lor Flags.of_bit) <> 0 then begin
      let bit = vreg env in
      ins env (Alu3 (Sltu, bit, Hinsn.r0, guest_pin EDX));
      if mask land Flags.cf_bit <> 0 then set_flag env Flags.cf_pos bit;
      if mask land Flags.of_bit <> 0 then set_flag env Flags.of_pos bit
    end;
    if mask land Flags.zf_bit <> 0 then clear_flag env Flags.zf_pos;
    if mask land Flags.sf_bit <> 0 then clear_flag env Flags.sf_pos;
    if mask land Flags.pf_bit <> 0 then clear_flag env Flags.pf_pos
  | Div s ->
    let b = read_operand env s in
    ins env (Div64 { divisor = b; signed = false })
  | Idiv s ->
    let b = read_operand env s in
    ins env (Div64 { divisor = b; signed = true })
  | Cdq -> ins env (Shifti (Sra, guest_pin EDX, guest_pin EAX, 31))
  | Push s ->
    (* Store before committing ESP so a faulting push leaves ESP intact,
       matching the reference interpreter. *)
    let v = read_operand env s in
    let sp = guest_pin ESP in
    let t = vreg env in
    ins env (Alui (Addi, t, sp, -4));
    ins env (Store (W32, v, t, 0));
    Emit.mov env.e ~dst:sp ~src:t
  | Pop d ->
    let sp = guest_pin ESP in
    let t = vreg env in
    ins env (Load (W32, t, sp, 0));
    ins env (Alui (Addi, sp, sp, 4));
    write_loc env d ~addr:None t
  | Xchg (a, b) ->
    let t = vreg env in
    Emit.mov env.e ~dst:t ~src:(guest_pin a);
    Emit.mov env.e ~dst:(guest_pin a) ~src:(guest_pin b);
    Emit.mov env.e ~dst:(guest_pin b) ~src:t
  | Setcc (c, d) ->
    let v = cond_val env c in
    write_byte env d v
  | Cmovcc (c, rd, s) ->
    (* The source is evaluated unconditionally (it may fault, as on x86);
       only the register write is predicated. *)
    let v = read_operand env s in
    let cv = cond_val env c in
    let skip = Emit.lab env.e in
    ins env (Branch (Beq, cv, Hinsn.r0, skip));
    Emit.mov env.e ~dst:(guest_pin rd) ~src:v;
    Emit.place env.e skip
  | Nop -> ()
  | Rep_movsb | Rep_stosb | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt ->
    invalid_arg "lower_body_insn: terminator"

(* Returns the block terminator; emits any terminator-support code (pushes,
   pops, condition evaluation into the link register). [self] is the
   terminator instruction's own guest address — the string operations are
   translated as one element per block execution with the block looping
   back to itself through the dispatcher (where chaining makes the
   back-edge a single cycle). *)
let lower_terminator env (insn : int Insn.t) ~self ~next : Block.term =
  let push_value v =
    let sp = guest_pin ESP in
    let t = vreg env in
    ins env (Alui (Addi, t, sp, -4));
    ins env (Store (W32, v, t, 0));
    Emit.mov env.e ~dst:sp ~src:t
  in
  match insn with
  | Jmp (Direct a) -> T_jmp { target = a }
  | Jmp (Indirect op) ->
    let v = read_operand env op in
    Emit.mov env.e ~dst:Block.term_reg ~src:v;
    T_jind { kind = K_jump }
  | Jcc (c, target) ->
    let v = cond_val env c in
    Emit.mov env.e ~dst:Block.term_reg ~src:v;
    T_jcc { taken = target; fall = next }
  | Call (Direct a) ->
    let r = Emit.li_reg env.e next in
    push_value r;
    T_call { target = a; ret = next }
  | Call (Indirect op) ->
    let v = read_operand env op in
    let r = Emit.li_reg env.e next in
    push_value r;
    Emit.mov env.e ~dst:Block.term_reg ~src:v;
    T_jind { kind = K_call next }
  | Ret ->
    let sp = guest_pin ESP in
    let t = vreg env in
    ins env (Load (W32, t, sp, 0));
    ins env (Alui (Addi, sp, sp, 4));
    Emit.mov env.e ~dst:Block.term_reg ~src:t;
    T_jind { kind = K_ret }
  | Int v ->
    if v = Syscall.vector then T_syscall { next }
    else T_fault (Printf.sprintf "unhandled interrupt 0x%x" v)
  | Hlt -> T_fault "hlt in user code"
  | Rep_movsb ->
    let ecx = guest_pin ECX and esi_ = guest_pin ESI and edi_ = guest_pin EDI in
    let skip = Emit.lab env.e in
    ins env (Branch (Beq, ecx, Hinsn.r0, skip));
    let t = vreg env in
    ins env (Load (W8, t, esi_, 0));
    ins env (Store (W8, t, edi_, 0));
    ins env (Alui (Addi, esi_, esi_, 1));
    ins env (Alui (Addi, edi_, edi_, 1));
    ins env (Alui (Addi, ecx, ecx, -1));
    Emit.place env.e skip;
    ins env (Alu3 (Sltu, Block.term_reg, Hinsn.r0, ecx));
    T_jcc { taken = self; fall = next }
  | Rep_stosb ->
    let ecx = guest_pin ECX and edi_ = guest_pin EDI in
    let skip = Emit.lab env.e in
    ins env (Branch (Beq, ecx, Hinsn.r0, skip));
    let al = vreg env in
    ins env (Ext (al, guest_pin EAX, 0, 8));
    ins env (Store (W8, al, edi_, 0));
    ins env (Alui (Addi, edi_, edi_, 1));
    ins env (Alui (Addi, ecx, ecx, -1));
    Emit.place env.e skip;
    ins env (Alu3 (Sltu, Block.term_reg, Hinsn.r0, ecx));
    T_jcc { taken = self; fall = next }
  | Mov _ | Movb _ | Movzxb _ | Movsxb _ | Lea _ | Alu _ | Unop _ | Shift _
  | Imul _ | Mul _ | Div _ | Idiv _ | Cdq | Push _ | Pop _ | Xchg _
  | Setcc _ | Cmovcc _ | Nop -> invalid_arg "lower_terminator: body instruction"

(* ------------------------------------------------------------------ *)
(* Block translation                                                   *)
(* ------------------------------------------------------------------ *)

type decoded =
  | Block_of of int Insn.t list * int * int
      (* insns, end addr, last insn's own addr *)
  | Fetch_fault of string

let decode_block cfg ~fetch ~guest_addr =
  let limit =
    if cfg.Config.superblocks then 3 * cfg.Config.max_block_insns
    else cfg.Config.max_block_insns
  in
  let rec go acc addr count =
    if count >= limit then Block_of (List.rev acc, addr, addr)
    else
      match Decode.decode fetch ~at:addr with
      | insn, len ->
        let addr' = addr + len in
        (match insn with
         | Insn.Jmp (Direct target)
           when cfg.Config.superblocks && target >= addr' && acc <> [] ->
           (* Superblock formation: a forward direct jump transfers no
              state, so translation simply continues at the target — the
              optimizer then sees across the seam. Forward-only keeps the
              trace finite; backward jumps (loop edges) still terminate
              the block and chain. *)
           go acc target count
         | _ ->
           if Insn.is_block_end insn then
             Block_of (List.rev (insn :: acc), addr', addr)
           else go (insn :: acc) addr' (count + 1))
      | exception Decode.Bad_instruction { addr = a; reason } ->
        if acc = [] then
          Fetch_fault (Printf.sprintf "bad instruction at 0x%x: %s" a reason)
        else Block_of (List.rev acc, addr, addr) (* stop before the bad insn *)
      | exception Mem.Fault { addr = a; access } ->
        if acc = [] then
          Fetch_fault (Printf.sprintf "fetch fault (%s) at 0x%x" access a)
        else Block_of (List.rev acc, addr, addr)
  in
  go [] guest_addr 0

let translate cfg ~fetch ~guest_addr : Block.t =
  match decode_block cfg ~fetch ~guest_addr with
  | Fetch_fault msg ->
    Block.make ~guest_addr ~guest_len:1 ~guest_insns:0 ~code:[||]
      ~term:(T_fault msg) ~optimized:false
      ~translation_cycles:Config.translate_base_cycles
      ~page_lo:(Mem.page_of guest_addr) ~page_hi:(Mem.page_of guest_addr)
  | Block_of (insns, end_addr, last_addr) ->
    let arr = Array.of_list insns in
    let n = Array.length arr in
    let masks = Flag_liveness.needed arr in
    let env = { e = Emit.create (); cfg } in
    let term = ref (Block.T_jmp { target = end_addr }) in
    Array.iteri
      (fun i insn ->
        if i = n - 1 && Insn.is_block_end insn then
          term := lower_terminator env insn ~self:last_addr ~next:end_addr
        else lower_body_insn env insn ~mask:masks.(i))
      arr;
    let items = Emit.items env.e in
    let pre_opt_count = Lblock.insn_count items in
    let items =
      if cfg.Config.optimize then
        items
        |> Opt.run_all ~live_out:live_out_regs
        |> Sched.hoist_loads
      else items
    in
    let code = Lblock.linearize (Regalloc.allocate items) in
    let translation_cycles =
      Config.translate_base_cycles
      + (Config.translate_per_guest_insn * n)
      + (if cfg.Config.optimize then
           Config.optimize_per_host_insn * pre_opt_count
         else 0)
    in
    Block.make ~guest_addr
      ~guest_len:(max 1 (end_addr - guest_addr))
      ~guest_insns:n ~code ~term:!term ~optimized:cfg.Config.optimize
      ~translation_cycles ~page_lo:(Mem.page_of guest_addr)
      ~page_hi:(Mem.page_of (max guest_addr (end_addr - 1)))

(* ------------------------------------------------------------------ *)
(* Keyed translation memo                                              *)
(* ------------------------------------------------------------------ *)

(* Translation is a pure function of the guest bytes and the config
   fields read above ([optimize], plus [superblocks] and [max_block_insns]
   in [decode_block]; the cycle model's costs are constants), so a block
   translated once can be reused by every later run over the same guest
   image whose fields match — config sweeps vary tile counts and other
   toggles far more often than they vary these. Guest bytes are covered
   by recording the generation of every page the translator read and
   revalidating them on lookup (the same page-generation scheme the
   manager uses to catch stores racing with translation). Memo hits skip
   host work only; the modelled [translation_cycles] ride inside the
   cached block, so timing is byte-identical with and without a memo.

   A memo may be shared across domains (the experiment pool runs one
   benchmark's config sweep on several workers): the table is
   mutex-guarded, and since every entry is an immutable deterministic
   function of its key, losing a publish race only costs a redundant
   translation, never a divergent result. *)

module Memo = struct
  type key = {
    addr : int;
    optimize : bool;
    superblocks : bool;
    max_block_insns : int;
  }

  type entry = { block : Block.t; gens : (int * int) list }

  type t = {
    tbl : (key, entry) Hashtbl.t;
    lock : Mutex.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    { tbl = Hashtbl.create 1024;
      lock = Mutex.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0 }

  let key_of (cfg : Config.t) ~guest_addr =
    { addr = guest_addr;
      optimize = cfg.optimize;
      superblocks = cfg.superblocks;
      max_block_insns = cfg.max_block_insns }

  let hits t = Atomic.get t.hits
  let misses t = Atomic.get t.misses
end

let page_gens ~page_gen (block : Block.t) =
  let rec go p acc =
    if p > block.Block.page_hi then List.rev acc
    else go (p + 1) ((p, page_gen ~page:p) :: acc)
  in
  go block.Block.page_lo []

let translate_memo ?memo cfg ~fetch ~page_gen ~guest_addr :
    Block.t * (int * int) list =
  match memo with
  | None ->
    let block = translate cfg ~fetch ~guest_addr in
    (block, page_gens ~page_gen block)
  | Some (m : Memo.t) ->
    let key = Memo.key_of cfg ~guest_addr in
    let cached = Mutex.protect m.lock (fun () -> Hashtbl.find_opt m.tbl key) in
    (match cached with
     | Some { Memo.block; gens }
       when List.for_all (fun (p, g) -> page_gen ~page:p = g) gens ->
       Atomic.incr m.hits;
       (block, gens)
     | Some _ | None ->
       Atomic.incr m.misses;
       let block = translate cfg ~fetch ~guest_addr in
       let gens = page_gens ~page_gen block in
       Mutex.protect m.lock (fun () ->
           Hashtbl.replace m.tbl key { Memo.block; gens });
       (block, gens))
