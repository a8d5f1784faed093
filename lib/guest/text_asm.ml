type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Tokenizer: one line at a time.                                      *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Num of int
  | Str of string
  | Punct of char (* , [ ] + * : - *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = line.[!i] in
    if c = ';' || c = '#' then i := n
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '"' then begin
      (* String literal with backslash escapes (n, t, 0, quote). *)
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        (match line.[!i] with
         | '"' -> closed := true
         | '\\' when !i + 1 < n ->
           incr i;
           Buffer.add_char buf
             (match line.[!i] with
              | 'n' -> '\n'
              | 't' -> '\t'
              | '0' -> '\000'
              | c -> c)
         | c -> Buffer.add_char buf c);
        incr i
      done;
      if not !closed then fail "unterminated string";
      push (Str (Buffer.contents buf))
    end
    else if (c >= '0' && c <= '9')
            || (c = '-' && !i + 1 < n && line.[!i + 1] >= '0'
                && line.[!i + 1] <= '9')
    then begin
      let start = !i in
      if c = '-' then incr i;
      if !i + 1 < n && line.[!i] = '0' && (line.[!i + 1] = 'x' || line.[!i + 1] = 'X')
      then begin
        i := !i + 2;
        while
          !i < n
          && (let c = line.[!i] in
              (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
              || (c >= 'A' && c <= 'F'))
        do
          incr i
        done
      end
      else
        while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
          incr i
        done;
      let text = String.sub line start (!i - start) in
      match int_of_string_opt text with
      | Some v -> push (Num v)
      | None -> fail "bad number %s" text
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char line.[!i] do
        incr i
      done;
      push (Ident (String.lowercase_ascii (String.sub line start (!i - start))))
    end
    else
      match c with
      | ',' | '[' | ']' | '+' | '*' | ':' | '-' ->
        push (Punct c);
        incr i
      | c -> fail "unexpected character %C" c
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Operand parsing                                                     *)
(* ------------------------------------------------------------------ *)

(* Names are the printer's ({!Insn.reg_name} and the like), looked up in
   Insn's enum tables; [aliases] are the x86 synonyms the printer never
   writes. *)
let lookup ?(aliases = []) table name_of name =
  match List.assoc_opt name aliases with
  | Some _ as found -> found
  | None -> Array.find_opt (fun x -> String.equal (name_of x) name) table

let register name = lookup Insn.regs Insn.reg_name name

let condition name =
  lookup
    ~aliases:[ ("z", Insn.E); ("nz", NE); ("c", B); ("nc", AE) ]
    Insn.conds Insn.cond_name name

(* An immediate-ish value: number, symbol, or symbol +/- number. *)
let parse_value toks =
  match toks with
  | Num v :: rest -> (Asm.Const v, rest)
  | Ident name :: rest when register name = None -> begin
    match rest with
    | Punct '+' :: Num off :: rest' -> (Asm.Sym_off (name, off), rest')
    | Punct '-' :: Num off :: rest' -> (Asm.Sym_off (name, -off), rest')
    | _ -> (Asm.Sym name, rest)
  end
  | _ -> fail "expected a number or symbol"

let scale_of = function
  | 1 -> Insn.S1
  | 2 -> S2
  | 4 -> S4
  | 8 -> S8
  | n -> fail "bad scale %d" n

(* Memory operand body (after '['): terms separated by '+' (or '-' before
   a displacement): reg, reg*scale, number, symbol. *)
let parse_mem toks =
  let base = ref None in
  let index = ref None in
  let disp_const = ref 0 in
  let disp_sym = ref None in
  let set_reg r scale_opt =
    match scale_opt with
    | Some s ->
      if !index <> None then fail "two index registers";
      index := Some (r, scale_of s)
    | None ->
      if !base = None then base := Some r
      else if !index = None then index := Some (r, Insn.S1)
      else fail "too many registers in address"
  in
  let rec terms toks =
    let toks =
      match toks with
      | Ident name :: Punct '*' :: Num s :: rest -> begin
        match register name with
        | Some r ->
          set_reg r (Some s);
          rest
        | None -> fail "%s is not a register" name
      end
      | Ident name :: rest -> begin
        match register name with
        | Some r ->
          set_reg r None;
          rest
        | None ->
          if !disp_sym <> None then fail "two symbols in address";
          disp_sym := Some name;
          rest
      end
      | Num v :: rest ->
        disp_const := !disp_const + v;
        rest
      | Punct '-' :: Num v :: rest ->
        disp_const := !disp_const - v;
        rest
      | _ -> fail "bad address term"
    in
    match toks with
    | Punct ']' :: rest -> rest
    | Punct '+' :: rest -> terms rest
    | Punct '-' :: _ -> terms toks
    | _ -> fail "expected ']' or '+' in address"
  in
  let rest = terms toks in
  let disp =
    match !disp_sym with
    | None -> Asm.Const !disp_const
    | Some s -> if !disp_const = 0 then Asm.Sym s else Asm.Sym_off (s, !disp_const)
  in
  (({ base = !base; index = !index; disp } : Asm.expr Insn.mem_operand), rest)

let parse_operand toks : Asm.expr Insn.operand * token list =
  match toks with
  | Punct '[' :: rest ->
    let m, rest = parse_mem rest in
    (Insn.Mem m, rest)
  | Ident name :: rest when register name <> None ->
    (Insn.Reg (Option.get (register name)), rest)
  | _ ->
    let v, rest = parse_value toks in
    (Insn.Imm v, rest)

let comma = function
  | Punct ',' :: rest -> rest
  | _ -> fail "expected ','"

let done_ = function [] -> () | _ -> fail "trailing tokens"

let two_operands toks =
  let d, rest = parse_operand toks in
  let rest = comma rest in
  let s, rest = parse_operand rest in
  done_ rest;
  (d, s)

let one_operand toks =
  let d, rest = parse_operand toks in
  done_ rest;
  d

let reg_comma_operand toks =
  match toks with
  | Ident name :: rest -> begin
    match register name with
    | Some r ->
      let rest = comma rest in
      let s, rest = parse_operand rest in
      done_ rest;
      (r, s)
    | None -> fail "%s is not a register" name
  end
  | _ -> fail "expected a register"

(* A direct transfer's target: a label (plus or minus a number), or an
   absolute address as [Image.disassemble] prints it. *)
let direct_target toks =
  let v, rest = parse_value toks in
  done_ rest;
  v

(* ------------------------------------------------------------------ *)
(* Instruction table                                                   *)
(* ------------------------------------------------------------------ *)

let prefixed name prefix =
  let lp = String.length prefix in
  if String.length name > lp && String.sub name 0 lp = prefix then
    Some (String.sub name lp (String.length name - lp))
  else None

let parse_insn mnemonic toks : Asm.item =
  let open Insn in
  let i x = Asm.Ins x in
  match mnemonic with
  | "mov" ->
    let d, s = two_operands toks in
    i (Mov (d, s))
  | "movb" ->
    let d, s = two_operands toks in
    i (Movb (d, s))
  | "movzxb" | "movzx" ->
    let r, s = reg_comma_operand toks in
    i (Movzxb (r, s))
  | "movsxb" | "movsx" ->
    let r, s = reg_comma_operand toks in
    i (Movsxb (r, s))
  | "lea" -> begin
    let r, s = reg_comma_operand toks in
    match s with
    | Mem m -> i (Lea (r, m))
    | Reg _ | Imm _ -> fail "lea needs a memory operand"
  end
  | "imul" ->
    let r, s = reg_comma_operand toks in
    i (Imul (r, s))
  | "mul" -> i (Mul (one_operand toks))
  | "div" -> i (Div (one_operand toks))
  | "idiv" -> i (Idiv (one_operand toks))
  | "cdq" ->
    done_ toks;
    i Cdq
  | "push" -> i (Push (one_operand toks))
  | "pop" -> i (Pop (one_operand toks))
  | "xchg" -> begin
    match toks with
    | Ident a :: Punct ',' :: Ident b :: rest -> begin
      match (register a, register b) with
      | Some ra, Some rb ->
        done_ rest;
        i (Xchg (ra, rb))
      | _ -> fail "xchg needs two registers"
    end
    | _ -> fail "xchg needs two registers"
  end
  | "ret" ->
    done_ toks;
    i Ret
  | "int" -> begin
    match toks with
    | [ Num v ] -> i (Int v)
    | _ -> fail "int needs a vector number"
  end
  | "nop" ->
    done_ toks;
    i Nop
  | "hlt" ->
    done_ toks;
    i Hlt
  | "jmp" -> begin
    match toks with
    | Punct '*' :: rest ->
      let op, rest = parse_operand rest in
      done_ rest;
      i (Jmp (Indirect op))
    | _ -> i (Jmp (Direct (direct_target toks)))
  end
  | "call" -> begin
    match toks with
    | Punct '*' :: rest ->
      let op, rest = parse_operand rest in
      done_ rest;
      i (Call (Indirect op))
    | _ -> i (Call (Direct (direct_target toks)))
  end
  | "rep" -> begin
    match toks with
    | [ Ident "movsb" ] -> i Rep_movsb
    | [ Ident "stosb" ] -> i Rep_stosb
    | _ -> fail "rep expects movsb or stosb"
  end
  | _ -> begin
    (* Families: j<cc>, set<cc>, cmov<cc>, shifts. *)
    match lookup ~aliases:[ ("sal", Shl) ] shifts shift_name mnemonic with
    | Some sh -> begin
      let d, rest = parse_operand toks in
      let rest = comma rest in
      match rest with
      | [ Ident "cl" ] -> i (Shift (sh, d, Sh_cl))
      | [ Num n ] when n >= 0 && n <= 31 -> i (Shift (sh, d, Sh_imm n))
      | _ -> fail "shift count must be cl or 0..31"
    end
    | None -> begin
      match lookup alus alu_name mnemonic with
      | Some op ->
        let d, s = two_operands toks in
        i (Alu (op, d, s))
      | None -> begin
        match lookup unops unop_name mnemonic with
        | Some op -> i (Unop (op, one_operand toks))
        | None -> begin
          match prefixed mnemonic "cmov" with
          | Some cc -> begin
            match condition cc with
            | Some c ->
              let r, s = reg_comma_operand toks in
              i (Cmovcc (c, r, s))
            | None -> fail "unknown condition %s" cc
          end
          | None -> begin
            match prefixed mnemonic "set" with
            | Some cc -> begin
              match condition cc with
              | Some c -> i (Setcc (c, one_operand toks))
              | None -> fail "unknown condition %s" cc
            end
            | None -> begin
              match prefixed mnemonic "j" with
              | Some cc -> begin
                match condition cc with
                | Some c -> i (Jcc (c, direct_target toks))
                | None -> fail "unknown mnemonic %s" mnemonic
              end
              | None -> fail "unknown mnemonic %s" mnemonic
            end
          end
        end
      end
    end
  end

(* Bound on a [.space] size or [.align] boundary: the default guest
   memory, past which no image can load. *)
let max_directive_bytes = 4 * 1024 * 1024

let parse_directive name toks : Asm.item list =
  match name with
  | ".byte" ->
    List.map
      (function Num v -> Asm.Byte v | _ -> fail ".byte needs numbers")
      (List.filter (fun t -> t <> Punct ',') toks)
  | ".word" ->
    let rec words toks acc =
      match toks with
      | [] -> List.rev acc
      | _ ->
        let v, rest = parse_value toks in
        let rest = match rest with Punct ',' :: r -> r | r -> r in
        words rest (Asm.Word v :: acc)
    in
    words toks []
  | ".ascii" -> begin
    match toks with
    | [ Str s ] -> [ Asm.Ascii s ]
    | _ -> fail ".ascii needs one string"
  end
  | ".asciz" -> begin
    match toks with
    | [ Str s ] -> [ Asm.Ascii (s ^ "\000") ]
    | _ -> fail ".asciz needs one string"
  end
  | ".space" -> begin
    match toks with
    | [ Num n ] when n >= 0 && n <= max_directive_bytes -> [ Asm.Space n ]
    | _ -> fail ".space needs a size from 0 to %d" max_directive_bytes
  end
  | ".align" -> begin
    match toks with
    | [ Num n ] when n > 0 && n <= max_directive_bytes -> [ Asm.Align n ]
    | _ -> fail ".align needs a boundary from 1 to %d" max_directive_bytes
  end
  | d -> fail "unknown directive %s" d

let parse_line line : Asm.item list =
  match tokenize line with
  | [] -> []
  | Ident name :: Punct ':' :: rest ->
    Asm.Label name
    :: (match rest with
        | [] -> []
        | Ident m :: toks when String.length m > 0 && m.[0] = '.' ->
          parse_directive m toks
        | Ident m :: toks -> [ parse_insn m toks ]
        | _ -> fail "expected an instruction after the label")
  | Ident name :: toks when String.length name > 0 && name.[0] = '.' ->
    parse_directive name toks
  | Ident m :: toks -> [ parse_insn m toks ]
  | _ -> fail "expected a label, directive, or instruction"

(* What the assembler would otherwise raise on, reported against the line
   that caused it: operand combinations the encoder rejects (its checks
   never depend on operand values), duplicate labels and undefined
   symbols. [lines] pairs each item with its line number. *)
let check lines =
  let errors = ref [] in
  let err line message = errors := { line; message } :: !errors in
  let labels = Hashtbl.create 64 in
  List.iter
    (function
      | line, Asm.Label name ->
        if Hashtbl.mem labels name then err line ("duplicate label " ^ name)
        else Hashtbl.add labels name ()
      | line, Asm.Ins insn -> (
        try Encode.check insn with Encode.Invalid message -> err line message)
      | _ -> ())
    lines;
  let symbol line = function
    | Asm.Sym name | Asm.Sym_off (name, _) when not (Hashtbl.mem labels name) ->
      err line ("undefined symbol " ^ name)
    | _ -> ()
  in
  List.iter
    (function
      | line, Asm.Ins insn -> ignore (Insn.map (symbol line) insn)
      | line, Asm.Word e -> symbol line e
      | _ -> ())
    lines;
  List.stable_sort (fun a b -> compare a.line b.line) (List.rev !errors)

let parse_string source =
  let errors = ref [] in
  let lines = ref [] in
  List.iteri
    (fun idx line ->
      match parse_line line with
      | parsed ->
        List.iter (fun item -> lines := (idx + 1, item) :: !lines) parsed
      | exception Parse_error message ->
        errors := { line = idx + 1; message } :: !errors)
    (String.split_on_char '\n' source);
  let lines = List.rev !lines in
  let errors = if !errors = [] then check lines else List.rev !errors in
  if errors = [] then Ok (List.map snd lines) else Error errors

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse_string content
