(* Property tests for the G86 condition-code semantics: every flag bit is
   checked against an independent wide-arithmetic specification. *)

open Vat_guest

let mask32 = Flags.mask32

let bit flags b = flags land b <> 0

(* Slow reference parity (count bits the dumb way). *)
let parity_even_ref v =
  let rec count v acc = if v = 0 then acc else count (v lsr 1) (acc + (v land 1)) in
  count (v land 0xFF) 0 mod 2 = 0

let arb32 =
  QCheck.(
    oneof
      [ map mask32 int;
        oneofl
          [ 0; 1; 2; 0x7FFFFFFF; 0x80000000; 0x80000001; 0xFFFFFFFF;
            0xFFFFFFFE; 0xFF; 0x100; 0xFFFF0000 ] ])

let prop_add =
  QCheck.Test.make ~name:"flags: add" ~count:2000
    QCheck.(triple arb32 arb32 (int_range 0 1))
    (fun (a, b, c) ->
      let res, fl = Flags.after_add ~a ~b ~carry_in:c in
      let wide = a + b + c in
      res = mask32 wide
      && bit fl Flags.cf_bit = (wide > 0xFFFFFFFF)
      && bit fl Flags.zf_bit = (res = 0)
      && bit fl Flags.sf_bit = (res land 0x80000000 <> 0)
      && bit fl Flags.pf_bit = parity_even_ref res
      && bit fl Flags.of_bit
         = (let sa = Flags.sign32 a and sb = Flags.sign32 b in
            let signed = sa + sb + c in
            signed <> Flags.sign32 res))

let prop_sub =
  QCheck.Test.make ~name:"flags: sub" ~count:2000
    QCheck.(triple arb32 arb32 (int_range 0 1))
    (fun (a, b, c) ->
      let res, fl = Flags.after_sub ~a ~b ~borrow_in:c in
      let wide = a - b - c in
      res = mask32 wide
      && bit fl Flags.cf_bit = (wide < 0)
      && bit fl Flags.zf_bit = (res = 0)
      && bit fl Flags.of_bit
         = (let signed = Flags.sign32 a - Flags.sign32 b - c in
            signed <> Flags.sign32 res))

let prop_logic =
  QCheck.Test.make ~name:"flags: logic clears CF/OF" ~count:500 arb32
    (fun v ->
      let fl = Flags.after_logic v in
      (not (bit fl Flags.cf_bit))
      && (not (bit fl Flags.of_bit))
      && bit fl Flags.zf_bit = (mask32 v = 0))

let prop_shift_matches_x86 =
  (* Cross-check Flags.after_shift CF against first principles for
     shl/shr/sar. *)
  QCheck.Test.make ~name:"flags: shift CF" ~count:2000
    QCheck.(triple (oneofl [ Insn.Shl; Shr; Sar ]) arb32 (int_range 1 31))
    (fun (sh, v, n) ->
      let _, fl = Flags.after_shift sh ~old_flags:0 ~value:v ~count:n in
      let expected_cf =
        match sh with
        | Insn.Shl -> (v lsr (32 - n)) land 1 = 1
        | Insn.Shr -> (v lsr (n - 1)) land 1 = 1
        | Insn.Sar -> (Flags.sign32 v asr (n - 1)) land 1 = 1
        | _ -> assert false
      in
      bit fl Flags.cf_bit = expected_cf)

let prop_shift_zero_is_identity =
  QCheck.Test.make ~name:"flags: count 0 changes nothing" ~count:500
    QCheck.(pair (oneofl [ Insn.Shl; Shr; Sar; Rol; Ror ]) arb32)
    (fun (sh, v) ->
      let res, fl =
        Flags.after_shift sh ~old_flags:0xABC ~value:v ~count:0
      in
      res = mask32 v && fl = 0xABC)

let prop_rotate_preserves_szp =
  QCheck.Test.make ~name:"flags: rotates keep SZP" ~count:1000
    QCheck.(triple (oneofl [ Insn.Rol; Ror ]) arb32 (int_range 1 31))
    (fun (sh, v, n) ->
      let old_flags = Flags.zf_bit lor Flags.pf_bit in
      let _, fl = Flags.after_shift sh ~old_flags ~value:v ~count:n in
      bit fl Flags.zf_bit && bit fl Flags.pf_bit)

let prop_rotate_round_trip =
  QCheck.Test.make ~name:"rol then ror is identity" ~count:1000
    QCheck.(pair arb32 (int_range 1 31))
    (fun (v, n) ->
      let r1, _ = Flags.after_shift Insn.Rol ~old_flags:0 ~value:v ~count:n in
      let r2, _ = Flags.after_shift Insn.Ror ~old_flags:0 ~value:r1 ~count:n in
      r2 = mask32 v)

let test_eval_cond_relations () =
  (* Signed/unsigned comparisons through real subtractions. *)
  let check a b =
    let _, fl = Flags.after_sub ~a ~b ~borrow_in:0 in
    let sa = Flags.sign32 a and sb = Flags.sign32 b in
    Alcotest.(check bool)
      (Printf.sprintf "L %x %x" a b)
      (sa < sb)
      (Flags.eval_cond Insn.L ~flags:fl);
    Alcotest.(check bool)
      (Printf.sprintf "G %x %x" a b)
      (sa > sb)
      (Flags.eval_cond Insn.G ~flags:fl);
    Alcotest.(check bool)
      (Printf.sprintf "B %x %x" a b)
      (a < b)
      (Flags.eval_cond Insn.B ~flags:fl);
    Alcotest.(check bool)
      (Printf.sprintf "A %x %x" a b)
      (a > b)
      (Flags.eval_cond Insn.A ~flags:fl);
    Alcotest.(check bool)
      (Printf.sprintf "E %x %x" a b)
      (a = b)
      (Flags.eval_cond Insn.E ~flags:fl)
  in
  let interesting =
    [ 0; 1; 2; 100; 0x7FFFFFFF; 0x80000000; 0x80000001; 0xFFFFFFFF ]
  in
  List.iter (fun a -> List.iter (fun b -> check a b) interesting) interesting

let prop_cond_negation =
  QCheck.Test.make ~name:"negated condition is complement" ~count:1000
    QCheck.(pair (int_range 0 15) (int_bound 0xFFF))
    (fun (ci, flags) ->
      let c = Insn.conds.(ci) in
      Flags.eval_cond c ~flags
      <> Flags.eval_cond (Insn.negate_cond c) ~flags)

let prop_imul_overflow =
  QCheck.Test.make ~name:"flags: imul CF=OF on truncation" ~count:2000
    QCheck.(pair arb32 arb32)
    (fun (a, b) ->
      let wide = Flags.sign32 a * Flags.sign32 b in
      let res = mask32 wide in
      let fl = Flags.after_imul ~wide ~res in
      bit fl Flags.cf_bit = (wide < -0x80000000 || wide > 0x7FFFFFFF)
      && bit fl Flags.cf_bit = bit fl Flags.of_bit)

let suite =
  [ Alcotest.test_case "eval_cond vs comparisons" `Quick
      test_eval_cond_relations ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_add; prop_sub; prop_logic; prop_shift_matches_x86;
        prop_shift_zero_is_identity; prop_rotate_preserves_szp;
        prop_rotate_round_trip; prop_cond_negation; prop_imul_overflow ]
