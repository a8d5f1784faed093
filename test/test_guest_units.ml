(* Unit tests for the guest substrate: memory, assembler, interpreter
   details, and syscalls. *)

open Vat_guest

(* --- Memory ------------------------------------------------------------ *)

let test_mem_endianness () =
  let m = Mem.create ~size:4096 in
  Mem.write_u32 m 0 0x11223344;
  Alcotest.(check int) "little endian low byte" 0x44 (Mem.read_u8 m 0);
  Alcotest.(check int) "little endian high byte" 0x11 (Mem.read_u8 m 3);
  Mem.write_u8 m 1 0xAB;
  Alcotest.(check int) "byte patch visible" 0x1122AB44 (Mem.read_u32 m 0)

let test_mem_bounds () =
  let m = Mem.create ~size:4096 in
  Alcotest.check_raises "read oob"
    (Mem.Fault { addr = 4096; access = "read4" })
    (fun () -> ignore (Mem.read_u32 m 4096));
  Alcotest.check_raises "straddling end"
    (Mem.Fault { addr = 4094; access = "write4" })
    (fun () -> Mem.write_u32 m 4094 0)

let test_mem_page_generations () =
  let m = Mem.create ~size:(3 * Mem.page_size) in
  let g0 = Mem.page_generation m ~page:0 in
  Mem.write_u8 m 10 1;
  Alcotest.(check bool) "store bumps" true (Mem.page_generation m ~page:0 > g0);
  let g1 = Mem.page_generation m ~page:1 in
  (* A word store straddling pages 0 and 1 bumps both. *)
  Mem.write_u32 m (Mem.page_size - 2) 0xFFFFFFFF;
  Alcotest.(check bool) "straddle bumps next page" true
    (Mem.page_generation m ~page:1 > g1);
  let g2 = Mem.page_generation m ~page:2 in
  Alcotest.(check int) "untouched page unchanged" g2
    (Mem.page_generation m ~page:2);
  (* An empty load stores nothing, wherever it points. *)
  let gens () = List.init 3 (fun page -> Mem.page_generation m ~page) in
  let before = gens () in
  List.iter
    (fun at -> Mem.load_string m ~at "")
    [ 0; 10; Mem.page_size; (2 * Mem.page_size) + 7; Mem.size m ];
  Alcotest.(check (list int)) "empty load bumps nothing" before (gens ())

(* FNV over every byte, one at a time: the oracle for [Mem.checksum]. *)
let fnv s =
  let h = ref 0xcbf29ce4 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x100000001b3) land max_int)
    s;
  !h

let checksum_bytewise m = fnv (Mem.read_string m ~at:0 ~len:(Mem.size m))

type mem_op =
  | Write_u8 of int * int
  | Write_u32 of int * int
  | Load_string of int * string
  | Copy

let pp_mem_op = function
  | Write_u8 (a, v) -> Printf.sprintf "write_u8 0x%x 0x%x" a v
  | Write_u32 (a, v) -> Printf.sprintf "write_u32 0x%x 0x%x" a v
  | Load_string (a, s) -> Printf.sprintf "load_string 0x%x %S" a s
  | Copy -> "copy"

(* Stores to a memory of [pages] pages aimed anywhere, at the last page,
   or across a page boundary, many of them zero; and copies. *)
let gen_mem_op pages =
  let open QCheck.Gen in
  let ps = Mem.page_size in
  let size = pages * ps in
  let addr =
    frequency
      [ (3, int_bound (size - 1));
        (2, map (fun o -> size - ps + o) (int_bound (ps - 1)));
        (2,
         map2 (fun p d -> ((p + 1) * ps) - d)
           (int_bound (max 0 (pages - 2)))
           (int_range 1 3)) ]
  in
  let value =
    frequency [ (2, return 0); (1, int_bound 0xFF); (2, map Int32.to_int ui32) ]
  in
  let byte = frequency [ (1, return '\000'); (2, char) ] in
  frequency
    [ (4, map2 (fun a v -> Write_u8 (a, v)) addr value);
      (4, map2 (fun a v -> Write_u32 (a, v)) addr value);
      (2,
       map2 (fun a s -> Load_string (a, s)) addr
         (string_size ~gen:byte
            (frequency
               [ (1, return 0); (3, int_bound 64); (1, int_bound 9000) ])));
      (1, return Copy) ]

(* A memory of 1 page, 3 pages or 4 MiB, then stores and copies. *)
let gen_mem_case =
  let open QCheck.Gen in
  let* pages = oneofl [ 1; 3; 1024 ] in
  pair (return pages) (list_size (int_bound 40) (gen_mem_op pages))

let prop_mem_checksum =
  QCheck.Test.make ~name:"mem: checksum = byte-wise FNV" ~count:100
    (QCheck.make
       ~print:(fun (pages, ops) ->
         Printf.sprintf "%d pages: %s" pages
           (String.concat "; " (List.map pp_mem_op ops)))
       gen_mem_case)
    (fun (pages, ops) ->
      let m = ref (Mem.create ~size:(pages * Mem.page_size)) in
      let size = Mem.size !m in
      let agree m = Mem.checksum m = checksum_bytewise m in
      (* Hashing 4 MiB twice per step would dominate the suite, so the
         memories are compared at the start, around each copy, and at
         the end. *)
      agree !m
      && List.for_all
           (function
             | Write_u8 (a, v) -> Mem.write_u8 !m a v; true
             | Write_u32 (a, v) -> Mem.write_u32 !m (min a (size - 4)) v; true
             | Load_string (a, s) ->
               Mem.load_string !m ~at:a
                 (String.sub s 0 (min (String.length s) (size - a)));
               true
             | Copy ->
               let m' = Mem.copy !m in
               Mem.write_u8 !m 0 0xFF;
               let ok = agree !m && agree m' in
               m := m';
               ok)
           ops
      && agree !m)

(* A family of memories, each with a flat model of its own: [Copy]
   adds a copy of the member it names (so copies of copies), and every
   store goes to one member, the source of a copy included. A page still
   shared after a copy shows one member's store in another's bytes. *)
type member = { mem : Mem.t; bytes : Bytes.t; gens : int array }

let prop_mem_copies_never_alias =
  QCheck.Test.make ~name:"mem: copies never alias" ~count:100
    (QCheck.make
       ~print:(fun (pages, ops) ->
         Printf.sprintf "%d pages: %s" pages
           (String.concat "; "
              (List.map
                 (fun (k, op) -> Printf.sprintf "#%d %s" k (pp_mem_op op))
                 ops)))
       QCheck.Gen.(
         let* pages = frequencyl [ (3, 1); (3, 3); (3, 8); (1, 1024) ] in
         pair (return pages)
           (list_size (int_range 1 60) (pair nat (gen_mem_op pages)))))
    (fun (pages, ops) ->
      let ps = Mem.page_size in
      let size = pages * ps in
      let family =
        ref
          [| { mem = Mem.create ~size; bytes = Bytes.make size '\000';
               gens = Array.make pages 0 } |]
      in
      let touch m a = m.gens.(a / ps) <- m.gens.(a / ps) + 1 in
      List.iter
        (fun (k, op) ->
          let m = !family.(k mod Array.length !family) in
          match op with
          | Write_u8 (a, v) ->
            Mem.write_u8 m.mem a v;
            Bytes.set_uint8 m.bytes a (v land 0xFF);
            touch m a
          | Write_u32 (a, v) ->
            let a = min a (size - 4) in
            Mem.write_u32 m.mem a v;
            Bytes.set_int32_le m.bytes a (Int32.of_int v);
            touch m a;
            if a / ps <> (a + 3) / ps then touch m (a + 3)
          | Load_string (a, s) ->
            let n = min (String.length s) (size - a) in
            Mem.load_string m.mem ~at:a (String.sub s 0 n);
            Bytes.blit_string s 0 m.bytes a n;
            if n > 0 then
              for p = a / ps to (a + n - 1) / ps do
                touch m (p * ps)
              done
          | Copy ->
            let c =
              { mem = Mem.copy m.mem; bytes = Bytes.copy m.bytes;
                gens = Array.copy m.gens }
            in
            family := Array.append !family [| c |])
        ops;
      let straddles =
        List.concat_map
          (fun p -> [ (p * ps) - 3; (p * ps) - 2; (p * ps) - 1 ])
          (List.init (pages - 1) succ)
      in
      Array.for_all
        (fun m ->
          let image = Bytes.to_string m.bytes in
          Mem.read_string m.mem ~at:0 ~len:size = image
          && List.for_all
               (fun a ->
                 Mem.read_u32 m.mem a
                 = Int32.to_int (Bytes.get_int32_le m.bytes a) land 0xFFFFFFFF)
               straddles
          && List.init pages (fun page -> Mem.page_generation m.mem ~page)
             = Array.to_list m.gens
          && Mem.checksum m.mem = fnv image)
        !family)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"mem: u32 write/read round trip" ~count:500
    QCheck.(pair (int_bound 4000) (map (fun v -> v land 0xFFFFFFFF) int))
    (fun (addr, v) ->
      let m = Mem.create ~size:8192 in
      Mem.write_u32 m addr v;
      Mem.read_u32 m addr = v)

(* --- Assembler --------------------------------------------------------- *)

open Asm.Dsl

let test_asm_labels () =
  let result =
    Asm.assemble ~origin:0x1000
      [ label "a"; nop; nop; label "b"; ret; Asm.Align 16; label "c" ]
  in
  Alcotest.(check int) "a at origin" 0x1000 (Asm.lookup result "a");
  Alcotest.(check int) "b after two nops" 0x1002 (Asm.lookup result "b");
  Alcotest.(check int) "c aligned" 0x1010 (Asm.lookup result "c")

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Error "duplicate label x") (fun () ->
      ignore (Asm.assemble ~origin:0 [ label "x"; label "x" ]))

let test_asm_undefined_symbol () =
  Alcotest.check_raises "undefined" (Asm.Error "undefined symbol nope")
    (fun () -> ignore (Asm.assemble ~origin:0 [ jmp "nope" ]))

let test_asm_symbol_arithmetic () =
  let result =
    Asm.assemble ~origin:0x2000
      [ mov (r eax) (isym ~off:8 "data"); label "data"; Asm.Word (Asm.Const 0) ]
  in
  let data = Asm.lookup result "data" in
  (* The encoded immediate (last 4 bytes of the mov) is data+8. *)
  let imm =
    Char.code result.image.[4]
    lor (Char.code result.image.[5] lsl 8)
    lor (Char.code result.image.[6] lsl 16)
    lor (Char.code result.image.[7] lsl 24)
  in
  Alcotest.(check int) "sym+off immediate" (data + 8) imm

let test_asm_jump_targets_resolve () =
  (* A jump over a variable amount of padding lands exactly on the label. *)
  List.iter
    (fun pad ->
      let items =
        [ label "start"; jmp "end_"; Asm.Space pad; label "end_";
          mov (r ebx) (i 7); mov (r eax) (i Syscall.sys_exit);
          int_ Syscall.vector ]
      in
      let t = Interp.create (Program.of_asm items) in
      match Interp.run ~fuel:100 t with
      | Interp.Exited 7 -> ()
      | _ -> Alcotest.failf "pad %d: jump missed" pad)
    [ 0; 1; 13; 255 ]

(* --- Interpreter corner cases ------------------------------------------ *)

let run items =
  let t = Interp.create (Program.of_asm items) in
  (Interp.run ~fuel:10_000 t, t)

let test_push_esp_semantics () =
  (* push esp stores the pre-decrement value. *)
  let o, t =
    run
      [ label "start";
        push (r esp);
        pop (r eax);          (* eax = old esp *)
        mov (r ebx) (r esp);  (* back to original *)
        sub (r ebx) (r eax);  (* must be 0 *)
        mov (r eax) (i Syscall.sys_exit);
        int_ Syscall.vector ]
  in
  (match o with
   | Interp.Exited 0 -> ()
   | _ -> Alcotest.fail "bad exit");
  ignore t

let test_movb_preserves_upper () =
  let o, t =
    run
      [ label "start";
        mov (r eax) (i 0x11223344);
        mov (r ecx) (i 0xFF);
        movb (r eax) (r ecx);
        mov (r ebx) (r eax);
        mov (r eax) (i Syscall.sys_exit);
        int_ Syscall.vector ]
  in
  (match o with Interp.Exited _ -> () | _ -> Alcotest.fail "no exit");
  Alcotest.(check int) "upper bytes preserved" 0x112233FF (Interp.reg t EBX)

let test_xchg () =
  let o, t =
    run
      [ label "start";
        mov (r ecx) (i 111);
        mov (r edx) (i 222);
        xchg ecx edx;
        mov (r eax) (i Syscall.sys_exit);
        mov (r ebx) (i 0);
        int_ Syscall.vector ]
  in
  (match o with Interp.Exited _ -> () | _ -> Alcotest.fail "no exit");
  Alcotest.(check int) "ecx" 222 (Interp.reg t ECX);
  Alcotest.(check int) "edx" 111 (Interp.reg t EDX)

(* --- Syscalls ----------------------------------------------------------- *)

let test_syscall_read_input () =
  let items =
    [ label "start";
      mov (r ebx) (i 0);
      mov (r ecx) (isym "buf");
      mov (r edx) (i 5);
      mov (r eax) (i Syscall.sys_read);
      int_ Syscall.vector;
      (* Echo what was read. *)
      mov (r edx) (r eax);
      mov (r ebx) (i 1);
      mov (r ecx) (isym "buf");
      mov (r eax) (i Syscall.sys_write);
      int_ Syscall.vector;
      mov (r ebx) (i 0);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "buf";
      Asm.Space 16 ]
  in
  let t = Interp.create ~input:"hello world" (Program.of_asm items) in
  (match Interp.run ~fuel:1000 t with
   | Interp.Exited 0 -> ()
   | _ -> Alcotest.fail "bad exit");
  Alcotest.(check string) "echoed prefix" "hello" (Interp.output t)

let test_syscall_read_eof () =
  (* read at end of input returns 0 and stores nothing, so the buffer's
     page keeps its generation: no checksum work, no stale-code flush. *)
  let items =
    [ label "start";
      mov (r ebx) (i 0);
      mov (r ecx) (isym "buf");
      mov (r edx) (i 5);
      mov (r eax) (i Syscall.sys_read);
      int_ Syscall.vector;
      mov (r ebx) (r eax);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "buf";
      Asm.Space 16 ]
  in
  let prog = Program.of_asm items in
  let page = Mem.page_of (Program.symbol prog "buf") in
  let gen () = Mem.page_generation prog.mem ~page in
  let before = gen () in
  let t = Interp.create ~input:"" prog in
  (match Interp.run ~fuel:1000 t with
   | Interp.Exited 0 -> ()
   | _ -> Alcotest.fail "read at EOF should return 0");
  Alcotest.(check int) "buffer page generation" before (gen ())

let test_syscall_brk () =
  let items =
    [ label "start";
      mov (r ebx) (i 0);
      mov (r eax) (i Syscall.sys_brk);
      int_ Syscall.vector;      (* query: eax = current brk *)
      mov (r ecx) (r eax);
      add (r ecx) (i 4096);
      mov (r ebx) (r ecx);
      mov (r eax) (i Syscall.sys_brk);
      int_ Syscall.vector;      (* grow *)
      sub (r eax) (r ecx);      (* 0 if brk moved exactly *)
      mov (r ebx) (r eax);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]
  in
  match run items with
  | Interp.Exited 0, _ -> ()
  | _ -> Alcotest.fail "brk did not grow as requested"

let test_syscall_unknown_enosys () =
  let items =
    [ label "start";
      mov (r eax) (i 9999);
      int_ Syscall.vector;
      (* -ENOSYS = -38; make it the exit code's low bits. *)
      neg (r eax);
      mov (r ebx) (r eax);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]
  in
  match run items with
  | Interp.Exited 38, _ -> ()
  | Interp.Exited n, _ -> Alcotest.failf "expected 38, got %d" n
  | _ -> Alcotest.fail "no exit"

(* A [mov eax, imm32] (8 bytes: op, desc, reg, kind, imm32) placed at
   0x1ffe straddles a page boundary: its last immediate byte is on page
   0x2000. The program runs it, rewrites that byte, and runs it again.
   A decode cache that checks only the page of an instruction's first
   byte re-runs the stale immediate. The exit status is the immediate's
   top byte: 0x22 once rewritten, 0 if stale. *)
let test_straddling_rewrite () =
  let items pad =
    [ label "start";
      mov (r esi) (i 0);
      jmp "site";
      Asm.Space pad;
      label "site";
      mov (r eax) (i 0x11);
      cmp (r esi) (i 0);
      jcc Insn.NE "done";
      mov (r esi) (i 1);
      mov (r edi) (isym "site");
      movb (m ~base:edi ~disp:7 ()) (i 0x22);
      jmp "site";
      label "done";
      mov (r ebx) (r eax);
      shr (r ebx) 24;
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]
  in
  let site pad =
    Asm.lookup (Asm.assemble ~origin:Program.default_origin (items pad)) "site"
  in
  let pad = 0x1ffe - site 0 in
  Alcotest.(check int) "mov placed at 0x1ffe" 0x1ffe (site pad);
  let t = Interp.create (Program.of_asm (items pad)) in
  let oi = Interp.run ~fuel:1000 t in
  let vm =
    Vat_core.Vm.run ~fuel:1000 Vat_core.Config.default
      (Program.of_asm (items pad))
  in
  (match (oi, vm.outcome) with
   | Interp.Exited a, Vat_core.Exec.Exited b ->
     Alcotest.(check int) "interp and vm agree" b a;
     Alcotest.(check int) "rewritten immediate" 0x22 a
   | _ -> Alcotest.fail "both runs should exit");
  Alcotest.(check int) "digests agree" vm.digest (Interp.digest t)

let suite =
  [ Alcotest.test_case "memory endianness" `Quick test_mem_endianness;
    Alcotest.test_case "memory bounds" `Quick test_mem_bounds;
    Alcotest.test_case "page generations" `Quick test_mem_page_generations;
    Alcotest.test_case "assembler labels/align" `Quick test_asm_labels;
    Alcotest.test_case "duplicate label rejected" `Quick test_asm_duplicate_label;
    Alcotest.test_case "undefined symbol rejected" `Quick
      test_asm_undefined_symbol;
    Alcotest.test_case "symbol arithmetic" `Quick test_asm_symbol_arithmetic;
    Alcotest.test_case "jumps land on labels" `Quick test_asm_jump_targets_resolve;
    Alcotest.test_case "push esp" `Quick test_push_esp_semantics;
    Alcotest.test_case "movb preserves upper bytes" `Quick
      test_movb_preserves_upper;
    Alcotest.test_case "xchg" `Quick test_xchg;
    Alcotest.test_case "syscall read" `Quick test_syscall_read_input;
    Alcotest.test_case "syscall read at EOF" `Quick test_syscall_read_eof;
    Alcotest.test_case "syscall brk" `Quick test_syscall_brk;
    Alcotest.test_case "unknown syscall -ENOSYS" `Quick
      test_syscall_unknown_enosys;
    Alcotest.test_case "rewrite of a page-straddling instruction" `Quick
      test_straddling_rewrite ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_mem_roundtrip; prop_mem_checksum; prop_mem_copies_never_alias ]
