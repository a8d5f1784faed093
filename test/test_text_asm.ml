(* Tests for the textual assembler and the image toolchain: parse/execute
   round trips, error reporting, and assemble -> disassemble -> reassemble
   stability. *)

open Vat_guest

let parse src =
  match Text_asm.parse_string src with
  | Ok items -> items
  | Error errors ->
    Alcotest.failf "parse failed: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Text_asm.pp_error) errors))

let run_source ?input src =
  let t = Interp.create ?input (Program.of_asm (parse src)) in
  (Interp.run ~fuel:100_000 t, t)

let exit_code src =
  match run_source src with
  | Interp.Exited n, _ -> n
  | Interp.Fault m, _ -> Alcotest.failf "fault: %s" m
  | Interp.Out_of_fuel, _ -> Alcotest.fail "fuel"

let test_basic_program () =
  let code =
    {|
start:
    mov eax, 0
    mov ecx, 10
loop:
    add eax, ecx
    dec ecx
    jne loop
    mov ebx, eax     ; 55
    mov eax, 1
    int 0x80
|}
  in
  Alcotest.(check int) "sum" 55 (exit_code code)

let test_addressing_forms () =
  let code =
    {|
start:
    mov esi, data
    mov ecx, 2
    mov eax, [esi + ecx*4 + 4]    ; data[3] = 40
    add eax, [esi]                ; + 10
    add eax, [data + 8]           ; + 30
    mov ebx, eax                  ; 80
    mov eax, 1
    int 0x80
    .align 4096
data:
    .word 10, 20, 30, 40
|}
  in
  Alcotest.(check int) "indexed + symbolic" 80 (exit_code code)

let test_cc_families_and_strings () =
  let code =
    {|
start:
    mov esi, data
    mov edi, data
    add edi, 64
    mov eax, 0x41
    mov ecx, 8
    rep stosb
    push esi
    mov edi, data
    add edi, 128
    mov esi, data
    add esi, 64
    mov ecx, 4
    rep movsb
    pop esi
    movzxb ebx, [esi + 130]   ; 'A'
    cmp ebx, 0x41
    sete ecx                  ; 1
    cmovne ebx, ecx           ; not taken
    add ebx, ecx              ; 0x42
    mov eax, 1
    int 0x80
    .align 4096
data:
    .space 256
|}
  in
  Alcotest.(check int) "strings + setcc + cmov" 0x42 (exit_code code)

let test_parse_errors_reported () =
  match Text_asm.parse_string "start:\n  bogus eax, 1\n  mov eax\n" with
  | Ok _ -> Alcotest.fail "expected errors"
  | Error errors ->
    Alcotest.(check int) "both lines reported" 2 (List.length errors);
    Alcotest.(check (list int)) "line numbers" [ 2; 3 ]
      (List.map (fun (e : Text_asm.error) -> e.line) errors)

let test_image_roundtrip () =
  let items =
    parse
      {|
start:
    mov ebx, 42
    mov eax, 1
    int 0x80
|}
  in
  let img = Image.of_asm ~origin:Program.default_origin items in
  let path = Filename.temp_file "vat" ".vbin" in
  Image.save path img;
  let img' = Image.load path in
  Sys.remove path;
  Alcotest.(check int) "origin" img.origin img'.origin;
  Alcotest.(check int) "entry" img.entry img'.entry;
  Alcotest.(check string) "bytes" img.image img'.image;
  let t = Interp.create (Image.to_program img') in
  match Interp.run ~fuel:100 t with
  | Interp.Exited 42 -> ()
  | _ -> Alcotest.fail "loaded image did not run"

let test_disassemble_reassemble () =
  (* Disassembling an image and checking every line decodes: the
     disassembly of pure code contains no .byte escapes, and assembled
     again at the same origin it gives the same bytes (direct targets
     print as absolute addresses). *)
  let items =
    parse
      {|
start:
    mov esi, 0x2000
    add eax, [esi + ecx*8 + 12]
    shl eax, 3
    jne start2
start2:
    cmovl edx, eax
    rep movsb
    call start
    ret
|}
  in
  let img = Image.of_asm ~origin:0x1000 items in
  let dis = Image.disassemble img in
  List.iter
    (fun (addr, text) ->
      if String.length text >= 5 && String.sub text 0 5 = ".byte" then
        Alcotest.failf "undecodable code at 0x%x" addr)
    dis;
  Alcotest.(check int) "instruction count" 8 (List.length dis);
  let again =
    Image.of_asm ~origin:0x1000
      (parse (String.concat "\n" (List.map snd dis)))
  in
  Alcotest.(check string) "re-assembled bytes" img.image again.image

let test_dsl_text_agreement () =
  (* The same program via the DSL and via text must produce identical
     images. *)
  let open Asm.Dsl in
  let dsl =
    [ label "start";
      mov (r eax) (i 7);
      add (r eax) (m ~base:esi ~index:(ecx, S4) ~disp:8 ());
      jne "start";
      ret ]
  in
  let text =
    parse
      {|
start:
    mov eax, 7
    add eax, [esi + ecx*4 + 8]
    jne start
    ret
|}
  in
  let img_of items = (Asm.assemble ~origin:0x1000 items).image in
  Alcotest.(check string) "identical encodings" (img_of dsl) (img_of text)

(* Property: for non-control instructions, the pretty-printer's output is
   valid assembly that parses back to the same instruction (linking the
   disassembler's rendering to the text assembler). *)
let prop_print_parse_roundtrip =
  let open QCheck in
  let gen = Test_encode.G.insn in
  let is_control (i : int Vat_guest.Insn.t) =
    match i with
    | Jmp (Indirect _) | Call (Indirect _) | Int _ | Hlt -> true
    | _ -> false
  in
  Test.make ~name:"print/parse round trip (body insns)" ~count:2000
    (make ~print:Vat_guest.Insn.to_string gen)
    (fun insn ->
      is_control insn
      ||
      let text = Vat_guest.Insn.to_string insn in
      match Vat_guest.Text_asm.parse_string text with
      | Ok [ Vat_guest.Asm.Ins parsed ] ->
        Vat_guest.Insn.map
          (function
            | Vat_guest.Asm.Const v -> v land 0xFFFFFFFF
            | _ -> failwith "symbol in round trip")
          parsed
        = insn
      | Ok _ | Error _ -> false)

(* A source exercising every syntactic form, plus sources of random
   printed instructions: the seeds the loader fuzz mutates. *)
let fuzz_corpus =
  {|
start:
    mov   esi, data
    mov   eax, [esi + ecx*4 + 8]
    movzxb ebx, [data + 3]
    lea   edi, [esi + 16]
    shl   eax, 3
    sar   ebx, cl
    setne [esi]
    cmovl eax, ebx
    rep movsb
    push  eax
    call  fn
    jmp   *[table + eax*4]
fn: ret
    int   0x80
table:
    .word fn, start + 4
msg:
    .asciz "hi\n"
    .byte 1, 2, 255
    .align 16
data:
    .space 32
|}

(* Untrusted assembly text either fails with line-numbered errors or
   yields items the assembler accepts. *)
let prop_parse_fuzz =
  let printed =
    List.init 4 (fun seed ->
        let st = Random.State.make [| seed |] in
        String.concat "\n"
          (List.init 40 (fun _ ->
               Vat_guest.Insn.to_string (Test_encode.G.insn st))))
  in
  QCheck.Test.make
    ~name:"Text_asm.parse_string on mutated input: Error, or items that assemble"
    ~count:3000
    (Fuzz.mutants ~char:QCheck.Gen.printable (fuzz_corpus :: printed))
    (fun src ->
      match Text_asm.parse_string src with
      | Error _ -> true
      | Ok items ->
        ignore (Asm.assemble ~origin:0x1000 items);
        true)

(* Untrusted image bytes either load or raise [Bad_image]. *)
let prop_image_fuzz =
  let seed =
    let img = Image.of_asm ~origin:0x1000 (parse fuzz_corpus) in
    let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
    "VAT0" ^ u32 img.origin ^ u32 img.entry ^ img.image
  in
  QCheck.Test.make
    ~name:"Image.load + to_program on mutated bytes: a program, or Bad_image"
    ~count:500 (Fuzz.mutants [ seed ])
    (fun bytes ->
      let path = Filename.temp_file "vat_fuzz" ".vbin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc bytes);
          match Image.to_program (Image.load path) with
          | _ -> true
          | exception Image.Bad_image _ -> true))

let suite =
  [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_parse_fuzz;
    QCheck_alcotest.to_alcotest prop_image_fuzz;
    Alcotest.test_case "basic program" `Quick test_basic_program;
    Alcotest.test_case "addressing forms" `Quick test_addressing_forms;
    Alcotest.test_case "strings/setcc/cmov" `Quick test_cc_families_and_strings;
    Alcotest.test_case "errors with line numbers" `Quick
      test_parse_errors_reported;
    Alcotest.test_case "image save/load round trip" `Quick test_image_roundtrip;
    Alcotest.test_case "disassembly clean on code" `Quick
      test_disassemble_reassemble;
    Alcotest.test_case "DSL and text encode identically" `Quick
      test_dsl_text_agreement ]
