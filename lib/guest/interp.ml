type outcome =
  | Exited of int
  | Out_of_fuel
  | Fault of string

type cached = { insn : int Insn.t; len : int; gen : int }

type t = {
  prog : Program.t;
  regs : int array;
  mutable eip : int;
  mutable fl : int;
  world : Syscall.world;
  mutable icount : int;
  dcache : (int, cached) Hashtbl.t;
  mutable hook : (int Insn.t -> unit) option;
}

let create ?input prog =
  let regs = Array.make 8 0 in
  regs.(Insn.reg_index ESP) <- prog.Program.initial_esp;
  { prog;
    regs;
    eip = prog.Program.entry;
    fl = 0;
    world = Syscall.create_world ?input ~brk0:prog.Program.brk0 ();
    icount = 0;
    dcache = Hashtbl.create 1024;
    hook = None }

let reg t r = t.regs.(Insn.reg_index r)
let set_reg t r v = t.regs.(Insn.reg_index r) <- Flags.mask32 v
let eip t = t.eip
let flags t = t.fl
let instret t = t.icount
let output t = Syscall.output t.world
let observe t f = t.hook <- Some f

let mask32 = Flags.mask32

let fetch_insn t addr =
  let gen = Mem.page_generation t.prog.Program.mem ~page:(Mem.page_of addr) in
  match Hashtbl.find_opt t.dcache addr with
  | Some c when c.gen = gen -> (c.insn, c.len)
  | Some _ | None ->
    let insn, len = Decode.decode (Mem.read_u8 t.prog.Program.mem) ~at:addr in
    Hashtbl.replace t.dcache addr { insn; len; gen };
    (insn, len)

let effective_address t ({ base; index; disp } : int Insn.mem_operand) =
  let b = match base with Some r -> reg t r | None -> 0 in
  let x =
    match index with
    | Some (r, s) -> reg t r * Insn.scale_factor s
    | None -> 0
  in
  mask32 (b + x + disp)

let get32 t (op : int Insn.operand) =
  match op with
  | Reg r -> reg t r
  | Imm v -> v
  | Mem m -> Mem.read_u32 t.prog.Program.mem (effective_address t m)

let set32 t (op : int Insn.operand) v =
  match op with
  | Reg r -> set_reg t r v
  | Mem m -> Mem.write_u32 t.prog.Program.mem (effective_address t m) v
  | Imm _ -> invalid_arg "set32: immediate destination"

let get8 t (op : int Insn.operand) =
  match op with
  | Reg r -> reg t r land 0xFF
  | Imm v -> v land 0xFF
  | Mem m -> Mem.read_u8 t.prog.Program.mem (effective_address t m)

let set8 t (op : int Insn.operand) v =
  match op with
  | Reg r -> set_reg t r ((reg t r land 0xFFFFFF00) lor (v land 0xFF))
  | Mem m -> Mem.write_u8 t.prog.Program.mem (effective_address t m) v
  | Imm _ -> invalid_arg "set8: immediate destination"

let push32 t v =
  let sp = mask32 (reg t ESP - 4) in
  Mem.write_u32 t.prog.Program.mem sp v;
  set_reg t ESP sp

let pop32 t =
  let sp = reg t ESP in
  let v = Mem.read_u32 t.prog.Program.mem sp in
  set_reg t ESP (sp + 4);
  v

let exec_alu t (op : Insn.alu) dst src =
  let a = get32 t dst and b = get32 t src in
  let cf = if t.fl land Flags.cf_bit <> 0 then 1 else 0 in
  let res, fl =
    match op with
    | Add -> Flags.after_add ~a ~b ~carry_in:0
    | Adc -> Flags.after_add ~a ~b ~carry_in:cf
    | Sub | Cmp -> Flags.after_sub ~a ~b ~borrow_in:0
    | Sbb -> Flags.after_sub ~a ~b ~borrow_in:cf
    | And | Test ->
      let r = a land b in
      (r, Flags.after_logic r)
    | Or ->
      let r = a lor b in
      (r, Flags.after_logic r)
    | Xor ->
      let r = a lxor b in
      (r, Flags.after_logic r)
  in
  t.fl <- fl;
  if Insn.alu_writes_dst op then set32 t dst res

let exec_unop t (op : Insn.unop) dst =
  let v = get32 t dst in
  match op with
  | Inc ->
    let res = mask32 (v + 1) in
    t.fl <- Flags.after_inc ~old_flags:t.fl res;
    set32 t dst res
  | Dec ->
    let res = mask32 (v - 1) in
    t.fl <- Flags.after_dec ~old_flags:t.fl res;
    set32 t dst res
  | Neg ->
    let res, fl = Flags.after_sub ~a:0 ~b:v ~borrow_in:0 in
    t.fl <- fl;
    set32 t dst res
  | Not -> set32 t dst (mask32 (lnot v))
(* NOT does not affect flags, as on x86. *)

let exec_shift t sh dst amt =
  let count =
    match (amt : Insn.shift_amount) with
    | Sh_imm n -> n land 31
    | Sh_cl -> reg t ECX land 31
  in
  let v = get32 t dst in
  let res, fl = Flags.after_shift sh ~old_flags:t.fl ~value:v ~count in
  t.fl <- fl;
  set32 t dst res

exception Guest_fault of string

let exec_div t src =
  let divisor = get32 t src in
  if divisor = 0 then raise (Guest_fault "divide error");
  let lo = Int64.of_int (reg t EAX) in
  let hi = Int64.of_int (reg t EDX) in
  let dividend = Int64.logor (Int64.shift_left hi 32) lo in
  let d = Int64.of_int divisor in
  let q = Int64.unsigned_div dividend d in
  let rem = Int64.unsigned_rem dividend d in
  if Int64.unsigned_compare q 0xFFFFFFFFL > 0 then
    raise (Guest_fault "divide overflow");
  set_reg t EAX (Int64.to_int (Int64.logand q 0xFFFFFFFFL));
  set_reg t EDX (Int64.to_int (Int64.logand rem 0xFFFFFFFFL))

(* Executes one instruction. Returns the outcome if execution ends. *)
let step t : outcome option =
  match fetch_insn t t.eip with
  | exception Decode.Bad_instruction { addr; reason } ->
    Some (Fault (Printf.sprintf "bad instruction at 0x%x: %s" addr reason))
  | exception Mem.Fault { addr; access } ->
    Some (Fault (Printf.sprintf "memory fault (%s) at 0x%x" access addr))
  | insn, len ->
    (match t.hook with Some f -> f insn | None -> ());
    let next = mask32 (t.eip + len) in
    let fall_through = ref true in
    let result = ref None in
    (try
       (match insn with
        | Mov (d, s) -> set32 t d (get32 t s)
        | Movb (d, s) -> set8 t d (get8 t s)
        | Movzxb (rd, s) -> set_reg t rd (get8 t s)
        | Movsxb (rd, s) ->
          let b = get8 t s in
          set_reg t rd (if b land 0x80 <> 0 then b lor 0xFFFFFF00 else b)
        | Lea (rd, m) -> set_reg t rd (effective_address t m)
        | Alu (op, d, s) -> exec_alu t op d s
        | Unop (op, d) -> exec_unop t op d
        | Shift (sh, d, amt) -> exec_shift t sh d amt
        | Imul (rd, s) ->
          let a = Flags.sign32 (reg t rd) and b = Flags.sign32 (get32 t s) in
          let wide = a * b in
          let res = mask32 wide in
          t.fl <- Flags.after_imul ~wide ~res;
          set_reg t rd res
        | Mul s ->
          let wide = Int64.mul (Int64.of_int (reg t EAX)) (Int64.of_int (get32 t s)) in
          let lo = Int64.to_int (Int64.logand wide 0xFFFFFFFFL) in
          let hi = Int64.to_int (Int64.shift_right_logical wide 32) in
          set_reg t EAX lo;
          set_reg t EDX hi;
          t.fl <- Flags.after_mul_wide ~hi
        | Div s -> exec_div t s
        | Idiv s ->
          (* The interpreter treats EDX:EAX as the signed 64-bit dividend. *)
          let hi = reg t EDX and lo = reg t EAX in
          let dividend =
            Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
          in
          let divisor = get32 t s in
          if divisor = 0 then raise (Guest_fault "divide error");
          let d = Int64.of_int (Flags.sign32 divisor) in
          let q = Int64.div dividend d and rem = Int64.rem dividend d in
          if q > 0x7FFFFFFFL || q < -0x80000000L then
            raise (Guest_fault "divide overflow");
          set_reg t EAX (Int64.to_int (Int64.logand q 0xFFFFFFFFL));
          set_reg t EDX (Int64.to_int (Int64.logand rem 0xFFFFFFFFL))
        | Cdq ->
          set_reg t EDX (if reg t EAX land 0x80000000 <> 0 then 0xFFFFFFFF else 0)
        | Push s -> push32 t (get32 t s)
        | Pop d ->
          let v = pop32 t in
          set32 t d v
        | Xchg (a, b) ->
          let va = reg t a and vb = reg t b in
          set_reg t a vb;
          set_reg t b va
        | Setcc (c, d) -> set8 t d (if Flags.eval_cond c ~flags:t.fl then 1 else 0)
        | Cmovcc (c, rd, s) ->
          (* The source is evaluated (and may fault) regardless of the
             condition, as on x86. *)
          let v = get32 t s in
          if Flags.eval_cond c ~flags:t.fl then set_reg t rd v
        | Rep_movsb ->
          while reg t ECX <> 0 do
            let b = Mem.read_u8 t.prog.Program.mem (reg t ESI) in
            Mem.write_u8 t.prog.Program.mem (reg t EDI) b;
            set_reg t ESI (reg t ESI + 1);
            set_reg t EDI (reg t EDI + 1);
            set_reg t ECX (reg t ECX - 1)
          done
        | Rep_stosb ->
          let b = reg t EAX land 0xFF in
          while reg t ECX <> 0 do
            Mem.write_u8 t.prog.Program.mem (reg t EDI) b;
            set_reg t EDI (reg t EDI + 1);
            set_reg t ECX (reg t ECX - 1)
          done
        | Jmp (Direct a) ->
          t.eip <- a;
          fall_through := false
        | Jmp (Indirect op) ->
          t.eip <- get32 t op;
          fall_through := false
        | Jcc (c, a) ->
          if Flags.eval_cond c ~flags:t.fl then begin
            t.eip <- a;
            fall_through := false
          end
        | Call (Direct a) ->
          push32 t next;
          t.eip <- a;
          fall_through := false
        | Call (Indirect op) ->
          let target = get32 t op in
          push32 t next;
          t.eip <- target;
          fall_through := false
        | Ret ->
          t.eip <- pop32 t;
          fall_through := false
        | Int v ->
          if v <> Syscall.vector then
            raise (Guest_fault (Printf.sprintf "unhandled interrupt 0x%x" v))
          else begin
            match
              Syscall.dispatch t.world t.prog.Program.mem ~eax:(reg t EAX)
                ~ebx:(reg t EBX) ~ecx:(reg t ECX) ~edx:(reg t EDX)
            with
            | Continue v -> set_reg t EAX v
            | Exit status -> result := Some (Exited status)
          end
        | Nop -> ()
        | Hlt -> raise (Guest_fault "hlt in user code"));
       t.icount <- t.icount + 1;
       if !fall_through then t.eip <- next
     with
     | Guest_fault msg -> result := Some (Fault msg)
     | Mem.Fault { addr; access } ->
       result :=
         Some (Fault (Printf.sprintf "memory fault (%s) at 0x%x" access addr)));
    !result

let run ~fuel t =
  let rec go budget =
    if budget <= 0 then Out_of_fuel
    else
      match step t with
      | Some outcome -> outcome
      | None -> go (budget - 1)
  in
  go fuel

let state_digest mem ~reg ~flags ~output =
  let h = ref (Mem.checksum mem) in
  let mix v = h := ((!h * 0x100000001b3) lxor v) land max_int in
  for i = 0 to 7 do
    mix (reg i)
  done;
  mix flags;
  String.iter (fun c -> mix (Char.code c)) output;
  !h

let digest t =
  state_digest t.prog.Program.mem ~reg:(Array.get t.regs) ~flags:t.fl
    ~output:(output t)
