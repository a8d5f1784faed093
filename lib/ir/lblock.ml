open Vat_host

type item =
  | L of int
  | I of Hinsn.t

type t = item list

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let share l item' rest' =
  match l with
  | item :: rest when item == item' && rest == rest' -> l
  | _ -> item' :: rest'

let rec map f = function
  | [] -> []
  | item :: rest as l ->
    let item' = f item in
    share l item' (map f rest)

let insns t =
  List.filter_map (function I i -> Some i | L _ -> None) t

let label_count t =
  let rec go n = function
    | [] -> n
    | I _ :: rest -> go n rest
    | L id :: rest ->
      if id < 0 then malformed "negative label %d" id;
      go (Int.max n (id + 1)) rest
  in
  go 0 t

let insn_count t =
  let rec go n = function
    | [] -> n
    | L _ :: rest -> go n rest
    | I _ :: rest -> go (n + 1) rest
  in
  go 0 t

let linearize t =
  (* target.(id): the index of the instruction after label [id], or -1. *)
  let target = Array.make (label_count t) (-1) in
  let total =
    List.fold_left
      (fun idx -> function
        | L id ->
          if target.(id) >= 0 then malformed "duplicate label %d" id;
          target.(id) <- idx;
          idx
        | I _ -> idx + 1)
      0 t
  in
  let resolve pos id =
    let tgt = if id >= 0 && id < Array.length target then target.(id) else -1 in
    if tgt < 0 then malformed "undefined label %d" id;
    if tgt <= pos then malformed "backward branch to label %d" id;
    (* A label at the block end resolves to [total]: a fall-through. *)
    tgt
  in
  let out = Array.make total Hinsn.Nop in
  let idx = ref 0 in
  List.iter
    (function
      | L _ -> ()
      | I insn ->
        let pos = !idx in
        out.(pos) <-
          (match insn with
           | Branch (c, rs, rt, id) -> Branch (c, rs, rt, resolve pos id)
           | Jump id -> Jump (resolve pos id)
           | _ -> insn);
        idx := pos + 1)
    t;
  out

let reg_count t =
  let rec go n = function
    | [] -> n
    | L _ :: rest -> go n rest
    | I insn :: rest -> go (Int.max n (Hinsn.max_reg insn + 1)) rest
  in
  go Hinsn.first_vreg t

let pp ppf t =
  List.iter
    (function
      | L id -> Format.fprintf ppf "L%d:@." id
      | I insn -> Format.fprintf ppf "  %a@." Hinsn.pp insn)
    t
