(* Encoder/decoder round-trip properties for the G86 variable-length
   encoding, plus decoder robustness on arbitrary bytes. *)

open Vat_guest

let mask32 v = v land 0xFFFFFFFF

(* Generator for valid instructions (respecting ISA constraints: no
   immediate destinations, at most one memory operand, bounded shift
   counts and vectors). *)
module G = struct
  open QCheck.Gen

  let reg = oneofa Insn.regs
  let scale = oneofl [ Insn.S1; S2; S4; S8 ]
  let cond = oneofa Insn.conds
  let imm = map mask32 (oneof [ int_range (-70000) 70000; int_bound 0xFFFF ])

  let mem_operand =
    let* base = opt reg in
    let* index = opt (pair reg scale) in
    let* disp = imm in
    return { Insn.base; index; disp }

  let operand_rm =
    oneof [ map (fun r -> Insn.Reg r) reg; map (fun m -> Insn.Mem m) mem_operand ]

  let operand_any =
    oneof [ operand_rm; map (fun v -> Insn.Imm v) imm ]

  (* dst/src pair with at most one memory operand. *)
  let dst_src =
    let* dst = operand_rm in
    match dst with
    | Insn.Mem _ ->
      let* src =
        oneof [ map (fun r -> Insn.Reg r) reg; map (fun v -> Insn.Imm v) imm ]
      in
      return (dst, src)
    | _ ->
      let* src = operand_any in
      return (dst, src)

  let gmap = map
  and gmap2 = map2
  and gmap3 = map3

  let insn : int Insn.t t =
    let open Insn in
    ignore (gmap3 : _ -> _ -> _ -> _ -> _);
    frequency
      [ (4, gmap (fun (d, s) -> Mov (d, s)) dst_src);
        (2, gmap (fun (d, s) -> Movb (d, s)) dst_src);
        (1, gmap2 (fun r s -> Movzxb (r, s)) reg operand_rm);
        (1, gmap2 (fun r s -> Movsxb (r, s)) reg operand_rm);
        (1, gmap2 (fun r m -> Lea (r, m)) reg mem_operand);
        (6,
         gmap2
           (fun op (d, s) -> Alu (op, d, s))
           (oneofl [ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test ])
           dst_src);
        (2,
         gmap2 (fun op d -> Unop (op, d)) (oneofl [ Inc; Dec; Neg; Not ])
           operand_rm);
        (2,
         gmap3
           (fun op d n -> Shift (op, d, n))
           (oneofl [ Shl; Shr; Sar; Rol; Ror ])
           operand_rm
           (oneof
              [ gmap (fun n -> Sh_imm n) (int_range 0 31); return Sh_cl ]));
        (1, gmap2 (fun r s -> Imul (r, s)) reg operand_any);
        (1, gmap (fun s -> Mul s) operand_rm);
        (1, gmap (fun s -> Div s) operand_rm);
        (1, gmap (fun s -> Idiv s) operand_rm);
        (1, return Cdq);
        (2, gmap (fun s -> Push s) operand_any);
        (2, gmap (fun d -> Pop d) operand_rm);
        (1, gmap2 (fun a b -> Xchg (a, b)) reg reg);
        (1, gmap2 (fun c d -> Setcc (c, d)) cond operand_rm);
        (1,
         gmap3 (fun c rd s -> Cmovcc (c, rd, s)) cond reg operand_any);
        (1, return Rep_movsb);
        (1, return Rep_stosb);
        (2, gmap (fun a -> Jmp (Direct a)) imm);
        (1, gmap (fun op -> Jmp (Indirect op)) operand_rm);
        (2, gmap2 (fun c a -> Jcc (c, a)) cond imm);
        (2, gmap (fun a -> Call (Direct a)) imm);
        (1, gmap (fun op -> Call (Indirect op)) operand_rm);
        (1, return Ret);
        (1, gmap (fun v -> Int v) (int_bound 255));
        (1, return Nop);
        (1, return Hlt) ]
end

let arb_insn = QCheck.make ~print:Insn.to_string G.insn

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round trip" ~count:5000 arb_insn
    (fun insn ->
      let at = 0x4000 in
      let bytes = Encode.encode ~at insn in
      let insn', len = Decode.decode_string bytes ~at ~origin:at in
      insn' = insn && len = String.length bytes)

let prop_sizeof =
  QCheck.Test.make ~name:"sizeof matches encoded length" ~count:2000 arb_insn
    (fun insn ->
      String.length (Encode.encode ~at:0x1234 insn) = Encode.sizeof insn)

let prop_size_value_independent =
  QCheck.Test.make ~name:"length independent of address" ~count:1000 arb_insn
    (fun insn ->
      Encode.sizeof insn = String.length (Encode.encode ~at:0 insn)
      && Encode.sizeof insn = String.length (Encode.encode ~at:0xFFFF00 insn))

let test_rejects_two_mems () =
  let m : int Insn.mem_operand = { base = Some EAX; index = None; disp = 0 } in
  Alcotest.check_raises "two memory operands"
    (Encode.Invalid "two memory operands") (fun () ->
      ignore (Encode.sizeof (Insn.Mov (Mem m, Mem m))))

let test_rejects_imm_dst () =
  Alcotest.check_raises "immediate destination"
    (Encode.Invalid "immediate destination") (fun () ->
      ignore (Encode.sizeof (Insn.Mov (Imm 1, Reg EAX))))

let prop_decode_garbage_terminates =
  (* Arbitrary bytes either decode to something (with positive length) or
     raise Bad_instruction — never loop or return nonsense lengths. *)
  QCheck.Test.make ~name:"decoder robust on garbage" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 16 32))
    (fun s ->
      match Decode.decode_string s ~at:0 ~origin:0 with
      | _, len -> len > 0 && len <= 16
      | exception Decode.Bad_instruction _ -> true)

(* Whatever the decoder accepts, the encoder produces from it the same
   bytes, so speculatively decoding bytes that never run cannot yield an
   instruction the rest of the system rejects, and no instruction has two
   encodings. Sweeps mutated workload images linearly, resynchronising
   one byte past each rejected instruction. *)
let prop_decoded_is_encodable =
  let images =
    List.map
      (fun (b : Vat_workloads.Suite.benchmark) ->
        (Asm.assemble ~origin:0 (b.program ())).Asm.image)
      Vat_workloads.Suite.all
  in
  QCheck.Test.make ~name:"decoded instructions re-encode to their bytes"
    ~count:50 (Fuzz.mutants images)
    (fun s ->
      let rec sweep at =
        at >= String.length s
        ||
        match Decode.decode_string s ~at ~origin:0 with
        | insn, len ->
          (match Encode.encode ~at insn with
           | bytes when bytes = String.sub s at len -> ()
           | _ ->
             QCheck.Test.fail_reportf "0x%x: %s re-encodes to other bytes" at
               (Insn.to_string insn)
           | exception Encode.Invalid reason ->
             QCheck.Test.fail_reportf "0x%x: %s: %s" at (Insn.to_string insn)
               reason);
          sweep (at + len)
        | exception Decode.Bad_instruction _ -> sweep (at + 1)
      in
      sweep 0)

(* The decoder indexes Insn's tables; the translator and interpreter use
   the compiler-checked [reg_index]/[cond_index]. They must agree. *)
let test_enum_tables () =
  let agree name index table size =
    Alcotest.(check int) (name ^ " table size") size (Array.length table);
    Array.iteri
      (fun i x -> Alcotest.(check int) (name ^ " index") i (index x))
      table
  in
  agree "reg" Insn.reg_index Insn.regs 8;
  agree "cond" Insn.cond_index Insn.conds 16

let test_variable_length () =
  (* The encoding really is variable length: collect distinct sizes. *)
  let sizes =
    List.sort_uniq compare
      [ Encode.sizeof Insn.Ret;
        Encode.sizeof (Insn.Mov (Reg EAX, Reg EBX));
        Encode.sizeof (Insn.Mov (Reg EAX, Imm 42));
        Encode.sizeof
          (Insn.Mov
             ( Reg EAX,
               Mem { base = Some ESI; index = Some (EDI, S4); disp = 100 } ));
        Encode.sizeof
          (Insn.Alu
             ( Add,
               Mem { base = Some ESI; index = None; disp = 4 },
               Imm 123456 )) ]
  in
  if List.length sizes < 4 then
    Alcotest.failf "expected at least 4 distinct lengths, got %d"
      (List.length sizes)

(* MD5 of each assembled image at the default origin: any drift in the
   encoder's bytes or layout fails here directly, not only through the
   translator digests. *)
let image_golden =
  [ ("164.gzip", "746a87021839621a007dd5be3cf4634a");
    ("175.vpr", "5434d38a2be3016734a282dd847ae3ff");
    ("176.gcc", "8e9c18105db7b253cd88aa1e951c04e8");
    ("181.mcf", "b2f7962d0955bcd51069cbb67c139950");
    ("186.crafty", "ef462b69f2f5e2035adc24467c4d91ab");
    ("197.parser", "f605b70378fd872b4e33f303184db260");
    ("253.perlbmk", "a3c280bcce2465feeb0141451339eb38");
    ("254.gap", "3326f4ed53b2eca369fc647c56334c97");
    ("255.vortex", "7120d7639ca9a99fc1a7f8385bcf76ba");
    ("256.bzip2", "6709dff4c84b8ca768c9b813fc4561ce");
    ("300.twolf", "58afe43e3c2d301b62fae10deb8df52f");
    ("hello.s", "10126114f8be74e892948093b51b0593");
    ("strings.s", "5567dee3ca9ca3a6c14b5033a1bfe6e9") ]

let test_images_pinned () =
  let examples = Filename.concat ".." "examples" in
  let sources =
    List.map
      (fun (b : Vat_workloads.Suite.benchmark) ->
        (b.Vat_workloads.Suite.name, b.program ()))
      Vat_workloads.Suite.all
    @ List.filter_map
        (fun f ->
          if Filename.check_suffix f ".s" then
            match Text_asm.parse_file (Filename.concat examples f) with
            | Ok items -> Some (f, items)
            | Error _ -> Alcotest.failf "%s does not parse" f
          else None)
        (List.sort compare (Array.to_list (Sys.readdir examples)))
  in
  let actual =
    List.map
      (fun (name, items) ->
        let asm = Asm.assemble ~origin:Program.default_origin items in
        (name, Digest.to_hex (Digest.string asm.Asm.image)))
      sources
  in
  Alcotest.(check (list (pair string string))) "image digests" image_golden
    actual

let suite =
  [ Alcotest.test_case "assembled images pinned" `Quick test_images_pinned;
    Alcotest.test_case "rejects two memory operands" `Quick test_rejects_two_mems;
    Alcotest.test_case "rejects immediate destination" `Quick test_rejects_imm_dst;
    Alcotest.test_case "variable-length encoding" `Quick test_variable_length;
    Alcotest.test_case "enum tables match the index functions" `Quick
      test_enum_tables ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_sizeof; prop_size_value_independent;
        prop_decode_garbage_terminates; prop_decoded_is_encodable ]
