exception Bad_instruction of { addr : int; reason : string }

type fetch = int -> int

let bad addr fmt =
  Printf.ksprintf (fun reason -> raise (Bad_instruction { addr; reason })) fmt

(* A decode cursor over the fetch function. *)
type cursor = { fetch : fetch; start : int; mutable pos : int }

let u8 c =
  let v = c.fetch c.pos land 0xFF in
  c.pos <- c.pos + 1;
  v

let u32 c =
  let b0 = u8 c in
  let b1 = u8 c in
  let b2 = u8 c in
  let b3 = u8 c in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let sext32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Element [i] of one of Insn's enum tables, or a decode error naming
   the field. *)
let nth c what table i =
  if i < Array.length table then table.(i) else bad c.start "bad %s %d" what i

let reg c = nth c "register" Insn.regs (u8 c)

(* The first byte is [b rrr i xxx]: base flag and register, index flag
   and register; the second is the scale. Bits the encoder leaves clear
   must be clear, so every accepted operand re-encodes to its own bytes. *)
let mem c : int Insn.mem_operand =
  let b1 = u8 c in
  let b2 = u8 c in
  if b1 land 0x80 = 0 && b1 land 0x70 <> 0 then
    bad c.start "base register bits without a base";
  if b1 land 0x08 = 0 && (b1 land 0x07 <> 0 || b2 <> 0) then
    bad c.start "index or scale bits without an index";
  if b2 land 0xFC <> 0 then bad c.start "reserved scale bits 0x%02x" b2;
  let base =
    if b1 land 0x80 <> 0 then Some Insn.regs.((b1 lsr 4) land 7) else None
  in
  let index =
    if b1 land 0x08 <> 0 then
      Some (Insn.regs.(b1 land 7), Insn.scales.(b2 land 3))
    else None
  in
  let disp = u32 c in
  { base; index; disp }

let operand c : int Insn.operand =
  match u8 c with
  | 0 -> Reg (reg c)
  | 1 -> Imm (u32 c)
  | 2 -> Mem (mem c)
  | k -> bad c.start "bad operand kind %d" k

let cond c = nth c "condition" Insn.conds (u8 c)

(* [rel_target] reads the displacement and resolves it against the end of
   the instruction, which for all direct-transfer encodings is the current
   cursor position after the displacement itself. *)
let rel_target c =
  let rel = sext32 (u32 c) in
  Flags.mask32 (c.pos + rel)

let decode fetch ~at =
  let c = { fetch; start = at; pos = at } in
  let insn : int Insn.t =
    match u8 c with
    | 0x01 ->
      let d = operand c in
      let s = operand c in
      Mov (d, s)
    | 0x02 ->
      let d = operand c in
      let s = operand c in
      Movb (d, s)
    | 0x03 ->
      let r = reg c in
      Movzxb (r, operand c)
    | 0x04 ->
      let r = reg c in
      Movsxb (r, operand c)
    | 0x05 -> begin
      let r = reg c in
      match operand c with
      | Mem m -> Lea (r, m)
      | Reg _ | Imm _ -> bad at "lea needs a memory operand"
    end
    | op when op >= 0x10 && op < 0x10 + Array.length Insn.alus ->
      let d = operand c in
      let s = operand c in
      Alu (Insn.alus.(op - 0x10), d, s)
    | 0x06 ->
      let u = nth c "unop" Insn.unops (u8 c) in
      Unop (u, operand c)
    | op when op >= 0x20 && op < 0x20 + Array.length Insn.shifts ->
      let sh = Insn.shifts.(op - 0x20) in
      let amt_byte = u8 c in
      let amt : Insn.shift_amount =
        if amt_byte = 0xFF then Sh_cl
        else if amt_byte <= 31 then Sh_imm amt_byte
        else bad at "bad shift count %d" amt_byte
      in
      Shift (sh, operand c, amt)
    | 0x30 ->
      let r = reg c in
      Imul (r, operand c)
    | 0x31 -> Mul (operand c)
    | 0x32 -> Div (operand c)
    | 0x33 -> Idiv (operand c)
    | 0x34 -> Cdq
    | 0x40 -> Push (operand c)
    | 0x41 -> Pop (operand c)
    | 0x42 ->
      let b = u8 c in
      if b land 0x88 <> 0 then bad at "reserved xchg register bits 0x%02x" b;
      Xchg (Insn.regs.((b lsr 4) land 7), Insn.regs.(b land 7))
    | 0x43 ->
      let cd = cond c in
      Setcc (cd, operand c)
    | 0x44 ->
      let cd = cond c in
      let rd = reg c in
      Cmovcc (cd, rd, operand c)
    | 0x70 -> Rep_movsb
    | 0x71 -> Rep_stosb
    | 0x50 -> Jmp (Direct (rel_target c))
    | 0x51 -> Jmp (Indirect (operand c))
    | 0x52 ->
      let cd = cond c in
      Jcc (cd, rel_target c)
    | 0x53 -> Call (Direct (rel_target c))
    | 0x54 -> Call (Indirect (operand c))
    | 0x55 -> Ret
    | 0x60 -> Int (u8 c)
    | 0x90 -> Nop
    | 0xF4 -> Hlt
    | op -> bad at "unknown opcode 0x%02x" op
  in
  (* Only what the encoder can produce decodes, so a speculatively
     translated byte string the encoder rejects becomes a clean fault. *)
  (try Encode.check insn with Encode.Invalid reason -> bad at "%s" reason);
  (insn, c.pos - at)

let decode_string s ~at ~origin =
  let fetch addr =
    let i = addr - origin in
    if i < 0 || i >= String.length s then
      raise (Bad_instruction { addr; reason = "fetch out of image" })
    else Char.code s.[i]
  in
  decode fetch ~at
