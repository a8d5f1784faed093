open Vat_host

type t = {
  mutable rev_items : Lblock.item list;
  mutable next_vreg : int;
  mutable next_label : int;
}

let create () =
  { rev_items = []; next_vreg = Hinsn.first_vreg; next_label = 0 }

let vreg t =
  let v = t.next_vreg in
  t.next_vreg <- v + 1;
  v

let lab t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let ins t insn =
  t.rev_items <- Lblock.I insn :: t.rev_items

let place t id = t.rev_items <- Lblock.L id :: t.rev_items

let fits_s16 v = v >= -32768 && v <= 32767
let fits_u16 v = v >= 0 && v <= 0xFFFF

let li t rd v =
  let v = v land 0xFFFFFFFF in
  if v = 0 then ins t (Hinsn.Alu3 (Or, rd, Hinsn.r0, Hinsn.r0))
  else if fits_u16 v then ins t (Hinsn.Alui (Ori, rd, Hinsn.r0, v))
  else if fits_s16 (v - 0x100000000) then
    (* Small negative 32-bit value: addi sign-extends for free. *)
    ins t (Hinsn.Alui (Addi, rd, Hinsn.r0, v - 0x100000000))
  else begin
    ins t (Hinsn.Lui (rd, v lsr 16));
    if v land 0xFFFF <> 0 then ins t (Hinsn.Alui (Ori, rd, rd, v land 0xFFFF))
  end

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
  else if fits_s16 v then ins t (Hinsn.Alui (Addi, dst, src, v))
  else if fits_s16 (v32 - 0x100000000) then
    ins t (Hinsn.Alui (Addi, dst, src, v32 - 0x100000000))
  else begin
    let tmp = li_reg t v32 in
    ins t (Hinsn.Alu3 (Add, dst, src, tmp))
  end

let mov t ~dst ~src =
  if dst <> src then ins t (Hinsn.Alu3 (Or, dst, src, Hinsn.r0))

let items t = List.rev t.rev_items
