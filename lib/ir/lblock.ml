open Vat_host

type item =
  | L of int
  | I of Hinsn.t

type t = item list

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let insns t =
  List.filter_map (function I i -> Some i | L _ -> None) t

let linearize t =
  (* Map label id -> instruction index (index of the next real insn). *)
  let labels = Hashtbl.create 8 in
  let idx = ref 0 in
  List.iter
    (function
      | L id ->
        if Hashtbl.mem labels id then malformed "duplicate label %d" id;
        Hashtbl.add labels id !idx
      | I _ -> incr idx)
    t;
  let total = !idx in
  let resolve pos id =
    match Hashtbl.find_opt labels id with
    | None -> malformed "undefined label %d" id
    | Some target ->
      if target <= pos then malformed "backward branch to label %d" id;
      (* A branch to the block end is a fall-through; clamp to total. *)
      min target total
  in
  let out = Array.make total Hinsn.Nop in
  let idx = ref 0 in
  List.iter
    (function
      | L _ -> ()
      | I insn ->
        out.(!idx) <- Hinsn.map_target (resolve !idx) insn;
        incr idx)
    t;
  out

(* An allocation-free bound on the register ids an instruction names
   explicitly (implicit Mul64/Div64 operands are hardware registers). *)
let insn_reg_bound : Hinsn.t -> int = function
  | Alu3 (_, a, b, c) | Shiftv (_, a, b, c) -> max a (max b c)
  | Alui (_, a, b, _) | Shifti (_, a, b, _) | Ext (a, b, _, _)
  | Ins (a, b, _, _) | Load (_, a, b, _) | Store (_, a, b, _)
  | Branch (_, a, b, _) -> max a b
  | Lui (a, _) | Trap (_, a) | Mul64 a | Div64 { divisor = a; _ } -> a
  | Jump _ | Nop -> 0

let reg_count t =
  List.fold_left
    (fun n -> function L _ -> n | I insn -> max n (insn_reg_bound insn + 1))
    Hinsn.first_vreg t

let pp ppf t =
  List.iter
    (function
      | L id -> Format.fprintf ppf "L%d:@." id
      | I insn -> Format.fprintf ppf "  %a@." Hinsn.pp insn)
    t
