(* Differential tests: the translated execution of a program on the
   virtual machine must finish in the same state as the reference
   interpreter. This is the central soundness property of the whole
   translator stack (decode -> codegen -> optimizer -> scheduler ->
   register allocation), checked through the engine that runs it. *)

open Vat_desim
open Vat_guest
open Vat_core

let fuel = 2_000_000

let outcome_to_string = function
  | Interp.Exited n -> Printf.sprintf "exited %d" n
  | Interp.Out_of_fuel -> "out of fuel"
  | Interp.Fault m -> Printf.sprintf "fault: %s" m

let vm_outcome_to_string = function
  | Exec.Exited n -> Printf.sprintf "exited %d" n
  | Exec.Out_of_fuel -> "out of fuel"
  | Exec.Fault m -> Printf.sprintf "fault: %s" m

(* Runs a program both ways and checks outcome + digest equality. *)
let check_equiv ?(cfg = Config.default) ?input items =
  let interp = Interp.create ?input (Program.of_asm items) in
  let oi = Interp.run ~fuel interp in
  let r = Vm.run ?input ~fuel:(fuel * 2) cfg (Program.of_asm items) in
  (match (oi, r.outcome) with
   | Interp.Exited a, Exec.Exited b when a = b -> ()
   | Interp.Fault _, Exec.Fault _ -> () (* states may differ mid-fault *)
   | _ ->
     Alcotest.failf "outcomes differ: interp=%s vm=%s"
       (outcome_to_string oi) (vm_outcome_to_string r.outcome));
  match oi with
  | Interp.Exited _ ->
    Alcotest.(check string) "output" (Interp.output interp) r.output;
    if Interp.digest interp <> r.digest then
      Alcotest.failf "digest mismatch after %s: interp %x, vm %x"
        (outcome_to_string oi) (Interp.digest interp) r.digest
  | Interp.Out_of_fuel | Interp.Fault _ -> ()

let random_case seed () =
  let rng = Rng.create ~seed in
  let items = Randprog.generate rng Randprog.default_params in
  check_equiv items

let random_noopt_case seed () =
  let rng = Rng.create ~seed in
  let items = Randprog.generate rng Randprog.default_params in
  check_equiv ~cfg:{ Config.default with optimize = false } items

let random_superblock_case seed () =
  let rng = Rng.create ~seed in
  let items = Randprog.generate rng Randprog.default_params in
  check_equiv ~cfg:{ Config.default with superblocks = true } items

let big_random_case seed () =
  let rng = Rng.create ~seed in
  let p =
    { Randprog.default_params with functions = 8; blocks_per_fun = 6 }
  in
  check_equiv (Randprog.generate rng p)

(* Hand-written corner cases. *)
open Asm.Dsl

let simple_loop () =
  check_equiv
    [ label "start";
      mov (r eax) (i 0);
      mov (r ecx) (i 100);
      label "loop";
      add (r eax) (r ecx);
      dec (r ecx);
      jne "loop";
      mov (r ebx) (r eax);
      and_ (r ebx) (i 0xFF);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]

let flags_chain () =
  (* ESI must point at writable memory before the setcc store. *)
  check_equiv
    [ label "start";
      mov (r esi) (isym "data");
      mov (r eax) (i 0xFFFFFFFF);
      add (r eax) (i 1);
      adc (r ebx) (i 0);
      mov (r ecx) (i 5);
      sub (r ecx) (i 10);
      sbb (r edx) (i 0);
      setcc Insn.S (r edi);
      setcc Insn.O (m ~base:esi ());
      mov (r ebx) (i 0);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      label "data";
      Asm.Space 64 ]

let shift_corners () =
  let cases =
    [ (Insn.Shl, 0); (Shl, 1); (Shl, 31); (Shr, 1); (Shr, 31); (Sar, 1);
      (Sar, 31); (Rol, 1); (Rol, 7); (Ror, 1); (Ror, 31) ]
  in
  let body =
    List.concat_map
      (fun (sh, n) ->
        [ mov (r eax) (i 0x80000001);
          Asm.Ins (Insn.Shift (sh, Reg EAX, Sh_imm n));
          setcc Insn.B (r ebx);     (* observe CF *)
          add (r edx) (r ebx);
          setcc Insn.O (r ebx);     (* observe OF *)
          add (r edx) (r ebx) ])
      cases
  in
  check_equiv
    ([ label "start"; mov (r edx) (i 0) ]
     @ body
     @ [ mov (r ebx) (r edx);
         mov (r eax) (i Syscall.sys_exit);
         int_ Syscall.vector ])

let cl_shifts () =
  let body =
    List.concat_map
      (fun count ->
        [ mov (r ecx) (i count);
          mov (r eax) (i 0xDEADBEEF);
          shl_cl (r eax);
          add (r edx) (r eax);
          mov (r eax) (i 0xDEADBEEF);
          sar_cl (r eax);
          add (r edx) (r eax);
          setcc Insn.B (r ebx);
          add (r edx) (r ebx) ])
      [ 0; 1; 5; 31; 32; 33 ]
  in
  check_equiv
    ([ label "start"; mov (r edx) (i 0) ]
     @ body
     @ [ mov (r ebx) (r edx); and_ (r ebx) (i 0x7F);
         mov (r eax) (i Syscall.sys_exit); int_ Syscall.vector ])

let mul_div () =
  check_equiv
    [ label "start";
      mov (r eax) (i 0x12345678);
      mov (r ebx) (i 0x9ABCDEF0);
      mul (r ebx);                   (* EDX:EAX wide *)
      mov (r ecx) (i 1000);
      div (r ecx);
      imul ebx (r eax);
      mov (r eax) (i (-1000));
      cdq;
      mov (r ecx) (i 7);
      idiv (r ecx);
      add (r edx) (r eax);
      mov (r ebx) (r edx);
      and_ (r ebx) (i 0x7F);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]

let call_ret_indirect () =
  check_equiv
    [ label "start";
      mov (r esi) (isym "table");
      mov (r eax) (i 0);
      mov (r ebx) (i 1);
      call "f1";
      mov (r ecx) (i 0);            (* index into jump table *)
      mov (r edx) (m ~base:esi ~index:(ecx, S4) ());
      calli (r edx);                (* indirect call through table *)
      jmp "done";
      label "f1";
      add (r eax) (i 10);
      ret;
      label "f2";
      add (r eax) (i 100);
      ret;
      label "done";
      mov (r ebx) (r eax);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4;
      label "table";
      Asm.Word (Asm.Sym "f2") ]

let div_fault () =
  (* Division by zero must fault in both engines. *)
  check_equiv
    [ label "start";
      mov (r eax) (i 1);
      mov (r ecx) (i 0);
      div (r ecx);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]

let smc_rewrite () =
  (* Self-modifying code across a block boundary: overwrite the immediate
     of a mov in a *later* block, then jump to it. (Same-block SMC is
     unsupported, as in the paper's system: invalidation is block
     granular.) The Mov (Reg, Imm) encoding is op desc reg kind imm32: the
     immediate lives at offset 4. *)
  check_equiv
    [ label "start";
      mov (r edi) (isym "patch_site");
      mov (m ~base:edi ~disp:4 ()) (i 77);
      jmp "patch_site";
      label "patch_site";
      mov (r ebx) (i 5);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]

let cmov_cases () =
  check_equiv
    [ label "start";
      mov (r esi) (isym "data");
      mov (r eax) (i 5);
      mov (r ebx) (i 9);
      cmp (r eax) (r ebx);
      cmovcc Insn.L ecx (r ebx);       (* taken: ecx = 9 *)
      cmovcc Insn.G edx (r ebx);       (* not taken *)
      cmovcc Insn.NE edi (m ~base:esi ());  (* memory source *)
      add (r ebx) (r ecx);
      add (r ebx) (r edx);
      add (r ebx) (r edi);
      and_ (r ebx) (i 0x7F);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "data";
      Asm.Word (Asm.Const 0x1234) ]

let rep_ops () =
  check_equiv
    [ label "start";
      mov (r esi) (isym "data");
      (* Fill 300 bytes with AL, then copy them 512 bytes higher. *)
      mov (r eax) (i 0xAB);
      lea edi (m ~base:esi ());
      mov (r ecx) (i 300);
      rep_stosb;
      lea edi (m ~base:esi ~disp:512 ());
      mov (r ecx) (i 300);
      (* ESI already advanced? No: stos does not move ESI. *)
      rep_movsb;
      (* Zero-count cases are no-ops. *)
      mov (r ecx) (i 0);
      rep_movsb;
      rep_stosb;
      (* Checksum a few copied bytes. *)
      mov (r esi) (isym "data");
      movzxb ebx (m ~base:esi ~disp:512 ());
      movzxb edx (m ~base:esi ~disp:811 ());
      add (r ebx) (r edx);
      and_ (r ebx) (i 0x7F);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "data";
      Asm.Space 2048 ]

let rep_overlap () =
  (* Forward overlapping copy: byte-by-byte semantics must agree. *)
  check_equiv
    [ label "start";
      mov (r esi) (isym "data");
      lea edi (m ~base:esi ~disp:1 ());
      mov (r ecx) (i 64);
      rep_movsb;
      mov (r esi) (isym "data");
      movzxb ebx (m ~base:esi ~disp:60 ());
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "data";
      Asm.Ascii "abcdefgh";
      Asm.Space 256 ]

let syscall_write () =
  check_equiv
    ([ label "start" ]
     @ sys_write_buf ~buf:"msg" ~len:(i 13)
     @ [ mov (r ebx) (i 0); mov (r eax) (i Syscall.sys_exit);
         int_ Syscall.vector;
         label "msg"; Asm.Ascii "hello, world\n" ])

(* "mov 1, 2": bytes of an immediate destination, which the encoder
   cannot produce, behind a branch. Translation runs ahead of execution,
   so when the branch skips them they must not change the outcome; when
   they run, both engines fault. *)
let unencodable_bytes branch () =
  check_equiv
    ([ label "start"; cmp (r eax) (r eax); branch "skip" ]
     @ List.map (fun b -> Asm.Byte b) [ 1; 1; 1; 0; 0; 0; 1; 2; 0; 0; 0 ]
     @ [ label "skip";
         mov (r eax) (i Syscall.sys_exit);
         mov (r ebx) (i 7);
         int_ Syscall.vector ])

(* The translator spills to 0xFFF00000 and up. To the guest that is
   memory outside its image, so a load or store there faults in both
   engines rather than reaching a spill slot. *)
let spill_area_access access () =
  check_equiv
    ([ label "start"; mov (r ecx) (i 5) ]
     @ access (m ~disp:0xFFF00000 ())
     @ [ mov (r ebx) (i 0);
         mov (r eax) (i Syscall.sys_exit);
         int_ Syscall.vector ])

(* The random families are embarrassingly parallel: each seed builds its
   own program, interpreter and VM. Fan a family's seeds out over a Pool
   when its first case runs; each named case then reports only its own
   seed's verdict, so failure attribution is unchanged. *)
let pooled_family family seeds =
  let results =
    lazy
      (Pool.run ~jobs:(Pool.cpu_count ())
         (List.map
            (fun seed () ->
              match family seed () with
              | () -> Ok ()
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
            seeds))
  in
  List.mapi
    (fun i _seed () ->
      match List.nth (Lazy.force results) i with
      | Ok () -> ()
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    seeds

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [ quick "simple loop" simple_loop;
    quick "flag chains (adc/sbb/setcc)" flags_chain;
    quick "shift corner cases" shift_corners;
    quick "CL shifts incl count 0" cl_shifts;
    quick "mul/div/imul/idiv" mul_div;
    quick "call/ret/indirect call" call_ret_indirect;
    quick "divide fault" div_fault;
    quick "self-modifying code" smc_rewrite;
    quick "cmov" cmov_cases;
    quick "rep movsb/stosb" rep_ops;
    quick "rep overlapping copy" rep_overlap;
    quick "syscall write" syscall_write;
    quick "skipped unencodable bytes" (unencodable_bytes je);
    quick "executed unencodable bytes" (unencodable_bytes jne);
    quick "guest load from the spill area"
      (spill_area_access (fun a -> [ mov (r eax) a ]));
    quick "guest store to the spill area"
      (spill_area_access (fun a -> [ mov a (r ecx) ])) ]
  @ List.mapi
      (fun i f -> quick (Printf.sprintf "random program %d" i) f)
      (pooled_family random_case (List.init 12 (fun i -> 1000 + i)))
  @ List.mapi
      (fun i f -> quick (Printf.sprintf "random program unoptimized %d" i) f)
      (pooled_family random_noopt_case (List.init 6 (fun i -> 2000 + i)))
  @ List.mapi
      (fun i f -> quick (Printf.sprintf "random program superblocks %d" i) f)
      (pooled_family random_superblock_case (List.init 6 (fun i -> 2500 + i)))
  @ List.mapi
      (fun i f -> quick (Printf.sprintf "random program large %d" i) f)
      (pooled_family big_random_case (List.init 4 (fun i -> 3000 + i)))
