open Vat_host

type t = {
  body : Lblock.t;
  mutable next_vreg : int;
  mutable next_label : int;
}

let create () =
  { body = Lblock.create (); next_vreg = Hinsn.first_vreg; next_label = 0 }

let vreg t =
  let v = t.next_vreg in
  t.next_vreg <- v + 1;
  v

let lab t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let ins t insn = Lblock.push t.body (I insn)
let place t id = Lblock.push t.body (L id)

let li t rd v =
  match Hinsn.const_insn rd v with
  | Some insn -> ins t insn
  | None ->
    let v = v land 0xFFFFFFFF in
    ins t (Hinsn.Lui (rd, v lsr 16));
    ins t (Hinsn.Alui (Ori, rd, rd, v land 0xFFFF))

let li_reg t v =
  if v land 0xFFFFFFFF = 0 then Hinsn.r0
  else begin
    let rd = vreg t in
    li t rd v;
    rd
  end

let addi_big t ~dst ~src v =
  let v32 = v land 0xFFFFFFFF in
  if v32 = 0 then begin
    if dst <> src then ins t (Hinsn.Alu3 (Or, dst, src, Hinsn.r0))
  end
  else if Hinsn.fits_s16 v then ins t (Hinsn.Alui (Addi, dst, src, v))
  else if Hinsn.fits_s16 (v32 - 0x100000000) then
    ins t (Hinsn.Alui (Addi, dst, src, v32 - 0x100000000))
  else begin
    let tmp = li_reg t v32 in
    ins t (Hinsn.Alu3 (Add, dst, src, tmp))
  end

let mov t ~dst ~src =
  if dst <> src then ins t (Hinsn.Alu3 (Or, dst, src, Hinsn.r0))

let items t =
  t.body.nregs <- t.next_vreg;
  t.body.nlabels <- t.next_label;
  t.body
