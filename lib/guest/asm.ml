type expr =
  | Const of int
  | Sym of string
  | Sym_off of string * int

type item =
  | Ins of expr Insn.t
  | Label of string
  | Byte of int
  | Word of expr
  | Ascii of string
  | Space of int
  | Align of int

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type result = {
  image : string;
  origin : int;
  symbols : (string, int) Hashtbl.t;
}

let resolve find = function
  | Const n -> Flags.mask32 n
  | Sym s -> Flags.mask32 (find s)
  | Sym_off (s, off) -> Flags.mask32 (find s + off)

let item_size at = function
  | Ins insn -> Encode.sizeof (Insn.map (fun _ -> 0) insn)
  | Label _ -> 0
  | Byte _ -> 1
  | Word _ -> 4
  | Ascii s -> String.length s
  | Space n ->
    if n < 0 then error "Space %d" n;
    n
  | Align n ->
    if n <= 0 then error "Align %d" n;
    (n - (at mod n)) mod n

let assemble ~origin items =
  let symbols = Hashtbl.create 64 in
  (* Pass 1: layout. Sizes never depend on symbol values (see mli). *)
  let at = ref origin in
  List.iter
    (fun item ->
      (match item with
       | Label name ->
         if Hashtbl.mem symbols name then error "duplicate label %s" name;
         Hashtbl.add symbols name !at
       | Ins _ | Byte _ | Word _ | Ascii _ | Space _ | Align _ -> ());
      at := !at + item_size !at item)
    items;
  let total = !at - origin in
  let find name =
    match Hashtbl.find_opt symbols name with
    | Some v -> v
    | None -> error "undefined symbol %s" name
  in
  (* Pass 2: emit. Each item starts where the bytes before it end. *)
  let buf = Buffer.create total in
  List.iter
    (fun item ->
      let at = origin + Buffer.length buf in
      match item with
      | Ins insn ->
        let concrete = Insn.map (resolve find) insn in
        Encode.encode_into buf ~at concrete
      | Label _ -> ()
      | Byte b -> Buffer.add_char buf (Char.chr (b land 0xFF))
      | Word e ->
        let v = resolve find e in
        Buffer.add_char buf (Char.chr (v land 0xFF));
        Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
        Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
        Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))
      | Ascii s -> Buffer.add_string buf s
      | Space n -> Buffer.add_string buf (String.make n '\000')
      | Align _ ->
        Buffer.add_string buf (String.make (item_size at item) '\000'))
    items;
  let image = Buffer.contents buf in
  if String.length image <> total then
    error "assembler size mismatch: layout %d, emitted %d" total
      (String.length image);
  { image; origin; symbols }

let lookup result name =
  match Hashtbl.find_opt result.symbols name with
  | Some v -> v
  | None -> error "unknown symbol %s" name

module Dsl = struct
  open Insn

  let eax = EAX
  let ecx = ECX
  let edx = EDX
  let ebx = EBX
  let esp = ESP
  let ebp = EBP
  let esi = ESI
  let edi = EDI

  let r reg : expr Insn.operand = Reg reg
  let i n : expr Insn.operand = Imm (Const n)
  let isym ?(off = 0) s : expr Insn.operand =
    Imm (if off = 0 then Sym s else Sym_off (s, off))

  let m ?base ?index ?(disp = 0) ?sym () : expr Insn.operand =
    let d =
      match sym with
      | None -> Const disp
      | Some s -> if disp = 0 then Sym s else Sym_off (s, disp)
    in
    Mem { base; index; disp = d }

  let mb reg = m ~base:reg ()
  let mbd reg disp = m ~base:reg ~disp ()
  let msym ?(off = 0) s = m ~sym:s ~disp:off ()

  let mov d s = Ins (Mov (d, s))
  let movb d s = Ins (Movb (d, s))
  let movzxb reg s = Ins (Movzxb (reg, s))
  let movsxb reg s = Ins (Movsxb (reg, s))

  let lea reg = function
    | Mem mo -> Ins (Lea (reg, mo))
    | Reg _ | Imm _ -> error "lea needs a memory operand"

  let alu op d s = Ins (Alu (op, d, s))
  let add d s = alu Add d s
  let adc d s = alu Adc d s
  let sub d s = alu Sub d s
  let sbb d s = alu Sbb d s
  let and_ d s = alu And d s
  let or_ d s = alu Or d s
  let xor d s = alu Xor d s
  let cmp d s = alu Cmp d s
  let test d s = alu Test d s

  let inc d = Ins (Unop (Inc, d))
  let dec d = Ins (Unop (Dec, d))
  let neg d = Ins (Unop (Neg, d))
  let not_ d = Ins (Unop (Not, d))

  let shift op d n = Ins (Shift (op, d, Sh_imm n))
  let shl d n = shift Shl d n
  let shr d n = shift Shr d n
  let sar d n = shift Sar d n
  let rol d n = shift Rol d n
  let ror d n = shift Ror d n
  let shl_cl d = Ins (Shift (Shl, d, Sh_cl))
  let shr_cl d = Ins (Shift (Shr, d, Sh_cl))
  let sar_cl d = Ins (Shift (Sar, d, Sh_cl))

  let imul reg s = Ins (Imul (reg, s))
  let mul s = Ins (Mul s)
  let div s = Ins (Div s)
  let idiv s = Ins (Idiv s)
  let cdq = Ins Cdq
  let push s = Ins (Push s)
  let pop d = Ins (Pop d)
  let xchg a b = Ins (Xchg (a, b))
  let setcc c d = Ins (Setcc (c, d))
  let cmovcc c rd s = Ins (Cmovcc (c, rd, s))
  let rep_movsb = Ins Rep_movsb
  let rep_stosb = Ins Rep_stosb

  let jmp l = Ins (Jmp (Direct (Sym l)))
  let jmpi op = Ins (Jmp (Indirect op))
  let jcc c l = Ins (Jcc (c, Sym l))
  let je l = jcc E l
  let jne l = jcc NE l
  let jl l = jcc L l
  let jle l = jcc LE l
  let jg l = jcc G l
  let jge l = jcc GE l
  let jb l = jcc B l
  let jbe l = jcc BE l
  let ja l = jcc A l
  let jae l = jcc AE l
  let js l = jcc S l
  let jns l = jcc NS l
  let call l = Ins (Call (Direct (Sym l)))
  let calli op = Ins (Call (Indirect op))
  let ret = Ins Ret
  let int_ v = Ins (Int v)
  let nop = Ins Nop
  let hlt = Ins Hlt
  let label name = Label name

  let sys_exit_code status =
    [ mov (r ebx) status; mov (r eax) (i Syscall.sys_exit); int_ Syscall.vector ]

  let sys_write_buf ~buf ~len =
    [ mov (r ebx) (i 1);
      mov (r ecx) (isym buf);
      mov (r edx) len;
      mov (r eax) (i Syscall.sys_write);
      int_ Syscall.vector ]
end
