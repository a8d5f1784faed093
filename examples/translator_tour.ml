(* A tour of the translator: decode a guest block, show the generated
   host code with and without optimization, and the effect of dead-flag
   elimination. A translated block keeps its code only as the op words
   the engine runs, so the tour prints each word's kind and fields (the
   layout is in lib/host/hexec.mli).

   Run with: dune exec examples/translator_tour.exe *)

open Vat_guest
open Vat_core
open Asm.Dsl

let items =
  [ label "start";
    (* A block with redundant flag traffic and a memory operand: the
       optimizer should kill most flag materialization (every ALU op
       overwrites all five flags) and fold constants. *)
    mov (r esi) (isym "data");
    mov (r eax) (i 10);
    add (r eax) (i 32);
    sub (r eax) (r ebx);
    and_ (r eax) (i 0xFF);
    mov (m ~base:esi ~disp:8 ()) (r eax);
    add (r ecx) (m ~base:esi ~disp:8 ());
    cmp (r ecx) (i 100);
    jl "start";
    mov (r ebx) (i 0);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    Asm.Align 4096;
    label "data";
    Asm.Space 64 ]

let () =
  let prog = Program.of_asm items in
  let fetch = Mem.read_u8 prog.Program.mem in
  (* Decode and print the guest block at the entry point. *)
  Printf.printf "Guest code at 0x%x:\n" prog.Program.entry;
  let rec dump addr n =
    if n > 0 then begin
      let insn, len = Decode.decode fetch ~at:addr in
      Printf.printf "  0x%04x: %s\n" addr (Insn.to_string insn);
      if not (Insn.is_block_end insn) then dump (addr + len) (n - 1)
    end
  in
  dump prog.Program.entry 20;

  let word w =
    let r f = Printf.sprintf "r%d" (f w) in
    let mem width =
      Printf.sprintf "%s[%s%+d]"
        (match (width : Vat_host.Hinsn.width) with
         | W8 -> "byte " | W8s -> "sbyte " | W32 -> "")
        (r Vat_host.Hexec.(match kind w with Store _ -> rt | _ -> rs))
        (Vat_host.Hexec.imm w)
    in
    match Vat_host.Hexec.kind w with
    | Alu ->
      Printf.sprintf "alu    %s <- %s, %s  imm %d" (r Vat_host.Hexec.rd)
        (r Vat_host.Hexec.rs) (r Vat_host.Hexec.rt) (Vat_host.Hexec.imm w)
    | Branch ->
      Printf.sprintf "branch %s, %s -> %d" (r Vat_host.Hexec.rs)
        (r Vat_host.Hexec.rt) (Vat_host.Hexec.imm w)
    | Trap -> Printf.sprintf "trap   if %s" (r Vat_host.Hexec.rs)
    | Mul64 -> Printf.sprintf "mul64  %s" (r Vat_host.Hexec.rt)
    | Div64 -> Printf.sprintf "div64  %s" (r Vat_host.Hexec.ru)
    | Load width ->
      Printf.sprintf "load   %s <- %s" (r Vat_host.Hexec.rd) (mem width)
    | Store width ->
      Printf.sprintf "store  %s <- %s" (mem width) (r Vat_host.Hexec.rs)
  in
  let show label cfg =
    let block = Translate.translate cfg ~fetch ~guest_addr:prog.Program.entry in
    Printf.printf "\n%s: %d guest insns -> %d host insns (%d bytes)\n" label
      block.Block.guest_insns
      (Array.length block.Block.ops)
      (Block.size_bytes block);
    Array.iteri
      (fun i w -> Printf.printf "  %2d  %s\n" i (word w))
      block.Block.ops
  in
  show "Unoptimized translation" { Config.default with optimize = false };
  show "Optimized translation" Config.default;
  print_endline
    "\n(Note the words that write the packed-flags register r16: dead-flag\n\
     elimination removed the flag materialization for every ALU op except\n\
     the last definition of each flag and the compare feeding the\n\
     conditional terminator.)"
