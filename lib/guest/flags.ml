let cf_pos = 0
let pf_pos = 2
let zf_pos = 6
let sf_pos = 7
let of_pos = 11
let cf_bit = 1 lsl cf_pos
let pf_bit = 1 lsl pf_pos
let zf_bit = 1 lsl zf_pos
let sf_bit = 1 lsl sf_pos
let of_bit = 1 lsl of_pos
let all_mask = cf_bit lor pf_bit lor zf_bit lor sf_bit lor of_bit

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Parity of the low byte: PF set when the number of set bits is even. *)
let parity_even b =
  let b = b lxor (b lsr 4) in
  let b = b lxor (b lsr 2) in
  let b = b lxor (b lsr 1) in
  b land 1 = 0

let szp res =
  let res = mask32 res in
  (if res = 0 then zf_bit else 0)
  lor (if res land 0x80000000 <> 0 then sf_bit else 0)
  lor (if parity_even (res land 0xFF) then pf_bit else 0)

let after_add ~a ~b ~carry_in =
  let wide = a + b + carry_in in
  let res = mask32 wide in
  let cf = if wide > 0xFFFFFFFF then cf_bit else 0 in
  (* Signed overflow: operands agree in sign but result disagrees. *)
  let ovf =
    if lnot (a lxor b) land (a lxor res) land 0x80000000 <> 0 then of_bit else 0
  in
  (res, cf lor ovf lor szp res)

let after_sub ~a ~b ~borrow_in =
  let wide = a - b - borrow_in in
  let res = mask32 wide in
  let cf = if wide < 0 then cf_bit else 0 in
  let ovf =
    if (a lxor b) land (a lxor res) land 0x80000000 <> 0 then of_bit else 0
  in
  (res, cf lor ovf lor szp res)

let after_logic res = szp res

let after_inc ~old_flags res =
  let res = mask32 res in
  let keep_cf = old_flags land cf_bit in
  let ovf = if res = 0x80000000 then of_bit else 0 in
  keep_cf lor ovf lor szp res

let after_dec ~old_flags res =
  let res = mask32 res in
  let keep_cf = old_flags land cf_bit in
  let ovf = if res = 0x7FFFFFFF then of_bit else 0 in
  keep_cf lor ovf lor szp res

let rotl32 v n =
  let n = n land 31 in
  if n = 0 then mask32 v else mask32 ((v lsl n) lor (mask32 v lsr (32 - n)))

let after_shift shift ~old_flags ~value ~count =
  let value = mask32 value in
  if count = 0 then (value, old_flags)
  else
    match shift with
    | Insn.Shl ->
      let res = mask32 (value lsl count) in
      let cf = if (value lsr (32 - count)) land 1 <> 0 then cf_bit else 0 in
      let ovf =
        (* Defined for count=1 on x86: MSB(result) xor CF; we use it for all
           counts so the semantics are total and deterministic. *)
        if (res lsr 31) lxor (cf land 1) <> 0 then of_bit else 0
      in
      (res, cf lor ovf lor szp res)
    | Insn.Shr ->
      let res = value lsr count in
      let cf = if (value lsr (count - 1)) land 1 <> 0 then cf_bit else 0 in
      let ovf = if value land 0x80000000 <> 0 then of_bit else 0 in
      (res, cf lor ovf lor szp res)
    | Insn.Sar ->
      let signed = sign32 value in
      let res = mask32 (signed asr count) in
      let cf = if (signed asr (count - 1)) land 1 <> 0 then cf_bit else 0 in
      (res, cf lor szp res)
    | Insn.Rol ->
      let res = rotl32 value count in
      let cf = if res land 1 <> 0 then cf_bit else 0 in
      let ovf = if (res lsr 31) lxor (res land 1) <> 0 then of_bit else 0 in
      let keep = old_flags land (zf_bit lor sf_bit lor pf_bit) in
      (res, keep lor cf lor ovf)
    | Insn.Ror ->
      let res = rotl32 value (32 - (count land 31)) in
      let cf = if res land 0x80000000 <> 0 then cf_bit else 0 in
      let ovf =
        if (res lsr 31) lxor ((res lsr 30) land 1) <> 0 then of_bit else 0
      in
      let keep = old_flags land (zf_bit lor sf_bit lor pf_bit) in
      (res, keep lor cf lor ovf)

let after_imul ~wide ~res =
  if wide <> sign32 res then cf_bit lor of_bit else 0

let after_mul_wide ~hi = if mask32 hi <> 0 then cf_bit lor of_bit else 0

let eval_cond c ~flags =
  let cf = flags land cf_bit <> 0 in
  let pf = flags land pf_bit <> 0 in
  let zf = flags land zf_bit <> 0 in
  let sf = flags land sf_bit <> 0 in
  let ovf = flags land of_bit <> 0 in
  match (c : Insn.cond) with
  | E -> zf
  | NE -> not zf
  | L -> sf <> ovf
  | LE -> zf || sf <> ovf
  | G -> (not zf) && sf = ovf
  | GE -> sf = ovf
  | B -> cf
  | BE -> cf || zf
  | A -> (not cf) && not zf
  | AE -> not cf
  | S -> sf
  | NS -> not sf
  | O -> ovf
  | NO -> not ovf
  | P -> pf
  | NP -> not pf
