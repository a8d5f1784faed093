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
  term : term;
  optimized : bool;
  translation_cycles : int;
  page_lo : int;
  page_hi : int;
  checksum : int;
  ops : int array;
}

(* FNV-1a style fold over the block's content: its address, each op
   word, then the terminator. Computed once at translation time and
   carried in the block; every store/transfer of the block keeps its own
   copy of the sum, so a bit flip in storage or in flight shows up as a
   sum that no longer matches a recomputation. *)
let mix h v = (h lxor (v land max_int)) * 0x01000193 land max_int

let sum ~guest_addr ops term =
  let h = ref (mix 0x811C9DC5 guest_addr) in
  for i = 0 to Array.length ops - 1 do
    h := mix !h (Array.unsafe_get ops i)
  done;
  mix !h (Hashtbl.hash term)

let recompute_checksum t = sum ~guest_addr:t.guest_addr t.ops t.term

(* The engine reads and writes its register file without an r0 guard, so
   a load into r0 (which would make r0 nonzero) is refused here. *)
let op_of (insn : Hinsn.t) =
  match insn with
  | Load (_, 0, _, _) -> invalid_arg "Block.make: load into r0"
  | _ -> Hexec.encode insn

(* The block keeps only the op words: [code] dies with the caller. *)
let make ~guest_addr ~guest_len ~guest_insns ~code ~term ~optimized
    ~translation_cycles ~page_lo ~page_hi =
  let ops = Array.map op_of code in
  { guest_addr;
    guest_len;
    guest_insns;
    term;
    optimized;
    translation_cycles;
    page_lo;
    page_hi;
    checksum = sum ~guest_addr ops term;
    ops }

(* Every instruction is one 32-bit word: [make] encodes each, and
   [Hexec.encode] refuses any that does not fit. *)
let bytes_per_insn = 4

let size_bytes t = (Array.length t.ops * bytes_per_insn) + 8

let direct_successors t =
  match t.term with
  | T_jmp { target } -> [ (target, `Target) ]
  | T_jcc { taken; fall } -> [ (taken, `Taken); (fall, `Fall) ]
  | T_call { target; ret } -> [ (target, `Target); (ret, `Ret) ]
  | T_jind { kind = K_call ret } -> [ (ret, `Ret) ]
  | T_syscall { next } -> [ (next, `Target) ]
  | T_jind { kind = K_jump | K_ret } | T_fault _ -> []
