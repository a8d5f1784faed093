open Vat_host

type item =
  | L of int
  | I of Hinsn.t

type t = {
  mutable items : item array;
  mutable len : int;
  mutable ninsns : int;
  mutable nregs : int;
  mutable nlabels : int;
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let filler = L (-1)

let create () =
  { items = Array.make 64 filler;
    len = 0;
    ninsns = 0;
    nregs = Hinsn.first_vreg;
    nlabels = 0 }

let push t item =
  if t.len = Array.length t.items then begin
    let a = Array.make (2 * t.len) filler in
    Array.blit t.items 0 a 0 t.len;
    t.items <- a
  end;
  t.items.(t.len) <- item;
  t.len <- t.len + 1;
  match item with I _ -> t.ninsns <- t.ninsns + 1 | L _ -> ()

let of_list l =
  let t = create () and ops = Array.make 5 (-1) in
  List.iter
    (fun item ->
      push t item;
      match item with
      | L id ->
        if id < 0 then malformed "negative label %d" id;
        t.nlabels <- Int.max t.nlabels (id + 1)
      | I insn ->
        Hinsn.operands insn ops;
        Array.iter (fun r -> t.nregs <- Int.max t.nregs (r + 1)) ops)
    l;
  t

let to_list t = Array.to_list (Array.sub t.items 0 t.len)

(* Workspace slot of the label targets. *)
let target_slot = 0

let linearize t =
  (* target.(id): the index of the instruction after label [id], or -1. *)
  let target = Workspace.cleared target_slot t.nlabels (-1) in
  let idx = ref 0 in
  for k = 0 to t.len - 1 do
    match t.items.(k) with
    | L id ->
      if id < 0 || id >= t.nlabels then malformed "label %d out of range" id;
      if target.(id) >= 0 then malformed "duplicate label %d" id;
      target.(id) <- !idx
    | I _ -> incr idx
  done;
  let resolve pos id =
    let tgt = if id >= 0 && id < t.nlabels then target.(id) else -1 in
    if tgt < 0 then malformed "undefined label %d" id;
    if tgt <= pos then malformed "backward branch to label %d" id;
    (* A label at the block end resolves to [ninsns]: a fall-through. *)
    tgt
  in
  let out = Array.make t.ninsns Hinsn.Nop in
  let pos = ref 0 in
  for k = 0 to t.len - 1 do
    match t.items.(k) with
    | L _ -> ()
    | I insn ->
      out.(!pos) <-
        (match insn with
         | Branch (c, rs, rt, id) -> Branch (c, rs, rt, resolve !pos id)
         | Jump id -> Jump (resolve !pos id)
         | _ -> insn);
      incr pos
  done;
  out

let pp ppf t =
  for k = 0 to t.len - 1 do
    match t.items.(k) with
    | L id -> Format.fprintf ppf "L%d:@." id
    | I insn -> Format.fprintf ppf "  %a@." Hinsn.pp insn
  done
