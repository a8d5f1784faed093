exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Opcode map. The decoder matches the same bytes; the round-trip
   properties in the tests pin the two together. *)
let op_mov = 0x01
let op_movb = 0x02
let op_movzxb = 0x03
let op_movsxb = 0x04
let op_lea = 0x05
let op_unop = 0x06 (* then the unop index byte *)
let op_alu_base = 0x10 (* + alu index *)
let op_shift_base = 0x20 (* + shift index *)
let op_imul = 0x30
let op_mul = 0x31
let op_div = 0x32
let op_idiv = 0x33
let op_cdq = 0x34
let op_push = 0x40
let op_pop = 0x41
let op_xchg = 0x42
let op_setcc = 0x43
let op_cmov = 0x44
let op_rep_movsb = 0x70
let op_rep_stosb = 0x71
let op_jmp_d = 0x50
let op_jmp_i = 0x51
let op_jcc = 0x52
let op_call_d = 0x53
let op_call_i = 0x54
let op_ret = 0x55
let op_int = 0x60
let op_nop = 0x90
let op_hlt = 0xF4

let reject_imm what (op : _ Insn.operand) =
  match op with Imm _ -> raise (Invalid what) | Reg _ | Mem _ -> ()

let check (insn : _ Insn.t) =
  match insn with
  | Mov (d, s) | Movb (d, s) | Alu (_, d, s) ->
    (match (d, s) with Mem _, Mem _ -> invalid "two memory operands" | _ -> ());
    reject_imm "immediate destination" d
  | Movzxb (_, s) | Movsxb (_, s) -> reject_imm "immediate byte source" s
  | Unop (_, d) | Pop d | Setcc (_, d) -> reject_imm "immediate destination" d
  | Shift (_, d, amt) ->
    reject_imm "immediate destination" d;
    (match amt with
     | Sh_imm n when n < 0 || n > 31 -> invalid "shift count %d" n
     | Sh_imm _ | Sh_cl -> ())
  | Mul s | Div s | Idiv s -> reject_imm "immediate divisor/multiplicand" s
  | Jmp (Indirect op) | Call (Indirect op) ->
    reject_imm "immediate indirect target" op
  | Int v -> if v < 0 || v > 255 then invalid "interrupt vector %d" v
  | Lea _ | Imul _ | Cdq | Push _ | Xchg _ | Cmovcc _ | Rep_movsb | Rep_stosb
  | Jmp (Direct _) | Jcc _ | Call (Direct _) | Ret | Nop | Hlt -> ()

(* Position of [x] in one of Insn's enum tables. The tables hold constant
   constructors, so physical equality is equality. *)
let index table x =
  let i = ref 0 in
  while table.(!i) != x do incr i done;
  !i

(* Each field emitter takes the instruction's length so far and returns
   it past the field, writing to [buf] when there is one. [sizeof] runs
   the emitter with no buffer, so the layout has one definition. *)
let u8 buf v len =
  (match buf with
   | Some b -> Buffer.add_char b (Char.chr (v land 0xFF))
   | None -> ());
  len + 1

let u32 buf v len =
  match buf with
  | None -> len + 4
  | Some _ ->
    len |> u8 buf v |> u8 buf (v lsr 8) |> u8 buf (v lsr 16)
    |> u8 buf (v lsr 24)

let reg buf r len = u8 buf (Insn.reg_index r) len

let mem buf ({ base; index = idx; disp } : int Insn.mem_operand) len =
  let b1 =
    (match base with Some r -> 0x80 lor (Insn.reg_index r lsl 4) | None -> 0)
    lor
    match idx with Some (r, _) -> 0x08 lor Insn.reg_index r | None -> 0
  in
  let b2 = match idx with Some (_, s) -> index Insn.scales s | None -> 0 in
  len |> u8 buf b1 |> u8 buf b2 |> u32 buf disp

let operand buf (op : int Insn.operand) len =
  match op with
  | Reg r -> len |> u8 buf 0 |> reg buf r
  | Imm v -> len |> u8 buf 1 |> u32 buf v
  | Mem m -> len |> u8 buf 2 |> mem buf m

(* A direct target's displacement is the instruction's last field, so it
   is relative to the end of the displacement itself. *)
let rel buf ~at target len = u32 buf (target - (at + len + 4)) len

(* Returns the encoded length. *)
let emit buf ~at (insn : int Insn.t) =
  check insn;
  match insn with
  | Mov (d, s) -> u8 buf op_mov 0 |> operand buf d |> operand buf s
  | Movb (d, s) -> u8 buf op_movb 0 |> operand buf d |> operand buf s
  | Movzxb (r, s) -> u8 buf op_movzxb 0 |> reg buf r |> operand buf s
  | Movsxb (r, s) -> u8 buf op_movsxb 0 |> reg buf r |> operand buf s
  | Lea (r, m) -> u8 buf op_lea 0 |> reg buf r |> operand buf (Mem m)
  | Alu (a, d, s) ->
    u8 buf (op_alu_base + index Insn.alus a) 0
    |> operand buf d |> operand buf s
  | Unop (u, d) ->
    u8 buf op_unop 0 |> u8 buf (index Insn.unops u) |> operand buf d
  | Shift (sh, d, amt) ->
    u8 buf (op_shift_base + index Insn.shifts sh) 0
    |> u8 buf (match amt with Sh_cl -> 0xFF | Sh_imm n -> n)
    |> operand buf d
  | Imul (r, s) -> u8 buf op_imul 0 |> reg buf r |> operand buf s
  | Mul s -> u8 buf op_mul 0 |> operand buf s
  | Div s -> u8 buf op_div 0 |> operand buf s
  | Idiv s -> u8 buf op_idiv 0 |> operand buf s
  | Cdq -> u8 buf op_cdq 0
  | Push s -> u8 buf op_push 0 |> operand buf s
  | Pop d -> u8 buf op_pop 0 |> operand buf d
  | Xchg (a, b) ->
    u8 buf op_xchg 0
    |> u8 buf ((Insn.reg_index a lsl 4) lor Insn.reg_index b)
  | Setcc (c, d) ->
    u8 buf op_setcc 0 |> u8 buf (Insn.cond_index c) |> operand buf d
  | Cmovcc (c, rd, s) ->
    u8 buf op_cmov 0 |> u8 buf (Insn.cond_index c) |> reg buf rd
    |> operand buf s
  | Rep_movsb -> u8 buf op_rep_movsb 0
  | Rep_stosb -> u8 buf op_rep_stosb 0
  | Jmp (Direct a) -> u8 buf op_jmp_d 0 |> rel buf ~at a
  | Jmp (Indirect op) -> u8 buf op_jmp_i 0 |> operand buf op
  | Jcc (c, a) -> u8 buf op_jcc 0 |> u8 buf (Insn.cond_index c) |> rel buf ~at a
  | Call (Direct a) -> u8 buf op_call_d 0 |> rel buf ~at a
  | Call (Indirect op) -> u8 buf op_call_i 0 |> operand buf op
  | Ret -> u8 buf op_ret 0
  | Int v -> u8 buf op_int 0 |> u8 buf v
  | Nop -> u8 buf op_nop 0
  | Hlt -> u8 buf op_hlt 0

let sizeof insn = emit None ~at:0 insn
let encode_into buf ~at insn = ignore (emit (Some buf) ~at insn)

let encode ~at insn =
  let buf = Buffer.create 16 in
  encode_into buf ~at insn;
  Buffer.contents buf
