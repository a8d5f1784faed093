open Vat_host

let term_reg = 30

type term =
  | T_jmp of { target : int }
  | T_jcc of { taken : int; fall : int }
  | T_jind of { kind : ind_kind }
  | T_call of { target : int; ret : int }
  | T_syscall of { next : int }
  | T_fault of string

and ind_kind = K_jump | K_call of int | K_ret

type t = {
  guest_addr : int;
  guest_len : int;
  guest_insns : int;
  code : Hinsn.t array;
  term : term;
  optimized : bool;
  translation_cycles : int;
  page_lo : int;
  page_hi : int;
  checksum : int;
  ops : int array;
}

(* FNV-1a style fold over the block's content. Computed once at
   translation time and carried in the block; every store/transfer of the
   block keeps its own copy of the sum, so a bit flip in storage or in
   flight shows up as a sum that no longer matches a recomputation. *)
let mix h v = (h lxor (v land max_int)) * 0x01000193 land max_int

let recompute_checksum t =
  let h = ref (mix 0x811C9DC5 t.guest_addr) in
  Array.iter (fun insn -> h := mix !h (Hashtbl.hash insn)) t.code;
  mix !h (Hashtbl.hash t.term)

(* The engine reads and writes its register file without an r0 guard, so
   a load into r0 (which would make r0 nonzero) is refused here. *)
let op_of (insn : Hinsn.t) =
  match insn with
  | Load (_, 0, _, _) -> invalid_arg "Block.make: load into r0"
  | _ -> Hexec.encode insn

(* One loop encodes each instruction and folds it into the sum. *)
let make ~guest_addr ~guest_len ~guest_insns ~code ~term ~optimized
    ~translation_cycles ~page_lo ~page_hi =
  let ops = Array.make (Array.length code) 0 in
  let h = ref (mix 0x811C9DC5 guest_addr) in
  for i = 0 to Array.length code - 1 do
    ops.(i) <- op_of code.(i);
    h := mix !h (Hashtbl.hash code.(i))
  done;
  { guest_addr;
    guest_len;
    guest_insns;
    code;
    term;
    optimized;
    translation_cycles;
    page_lo;
    page_hi;
    checksum = mix !h (Hashtbl.hash term);
    ops }

(* Every instruction is one 32-bit word: [make] encodes each, and
   [Hexec.encode] refuses any that does not fit. *)
let bytes_per_insn = 4

let size_bytes t = (Array.length t.code * bytes_per_insn) + 8

let direct_successors t =
  match t.term with
  | T_jmp { target } -> [ (target, `Target) ]
  | T_jcc { taken; fall } -> [ (taken, `Taken); (fall, `Fall) ]
  | T_call { target; ret } -> [ (target, `Target); (ret, `Ret) ]
  | T_jind { kind = K_call ret } -> [ (ret, `Ret) ]
  | T_syscall { next } -> [ (next, `Target) ]
  | T_jind { kind = K_jump | K_ret } | T_fault _ -> []

let pp_term ppf = function
  | T_jmp { target } -> Format.fprintf ppf "jmp 0x%x" target
  | T_jcc { taken; fall } -> Format.fprintf ppf "jcc 0x%x / 0x%x" taken fall
  | T_jind { kind = K_jump } -> Format.fprintf ppf "jind"
  | T_jind { kind = K_call ret } -> Format.fprintf ppf "callind (ret 0x%x)" ret
  | T_jind { kind = K_ret } -> Format.fprintf ppf "ret"
  | T_call { target; ret } -> Format.fprintf ppf "call 0x%x (ret 0x%x)" target ret
  | T_syscall { next } -> Format.fprintf ppf "syscall (next 0x%x)" next
  | T_fault msg -> Format.fprintf ppf "fault %S" msg

let pp ppf t =
  Format.fprintf ppf "block @@0x%x (%d guest insns, %d host insns)@."
    t.guest_addr t.guest_insns (Array.length t.code);
  Array.iter (fun insn -> Format.fprintf ppf "  %a@." Hinsn.pp insn) t.code;
  Format.fprintf ppf "  -> %a@." pp_term t.term
