type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 64

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let add t name n =
  let r = cell t name in
  r := !r + n

let incr t name = add t name 1

(* Pre-resolved counter handles: hot paths look the name up once at
   component-construction time and then bump the ref per event, paying
   neither string hashing nor a hashtable probe per increment. [@@inline]
   reaches other modules only without [-opaque], which dune's dev profile
   passes: there each bump is a call. *)

type counter = int ref

let counter = cell
let bump (c : counter) = c := !c + 1 [@@inline]
let bump_by (c : counter) n = c := !c + n [@@inline]
let counter_value (c : counter) = !c

let bump_max (c : counter) n = if n > !c then c := n

let set_max t name n = bump_max (cell t name) n

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let ratio t num den =
  let d = get t den in
  if d = 0 then 0.0 else float_of_int (get t num) /. float_of_int d

(* A counter that reads zero is not listed, so a handle resolved at
   construction but never bumped leaves the listings as they were. *)
let to_alist t =
  Hashtbl.fold (fun k r acc -> if !r = 0 then acc else (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let names t = List.map fst (to_alist t)

let pp ppf t =
  List.iter (fun (name, v) -> Format.fprintf ppf "%-40s %d@." name v) (to_alist t)
