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

let set_max t name n =
  let r = cell t name in
  if n > !r then r := n

(* Handles that resolve their cell at the first call rather than at
   construction, so a name enters the registry exactly when the
   string-keyed call it replaces would have added it ([names] and
   checkpoints list only names some component touched). [unresolved] is
   never written: every call swaps it for the real cell first. *)

type lazy_counter = { reg : t; name : string; mutable cell : int ref }

let unresolved = ref 0

let lazy_counter t name = { reg = t; name; cell = unresolved }

let resolve h =
  if h.cell == unresolved then h.cell <- cell h.reg h.name;
  h.cell
[@@inline]

let incr_lazy h =
  let r = resolve h in
  r := !r + 1

let add_lazy h n =
  let r = resolve h in
  r := !r + n

let set_max_lazy h n =
  let r = resolve h in
  if n > !r then r := n

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let ratio t num den =
  let d = get t den in
  if d = 0 then 0.0 else float_of_int (get t num) /. float_of_int d

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let to_alist t = List.map (fun name -> (name, get t name)) (names t)

let pp ppf t =
  List.iter (fun name -> Format.fprintf ppf "%-40s %d@." name (get t name)) (names t)
