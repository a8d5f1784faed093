let key = Domain.DLS.new_key (fun () -> Array.make 16 [||])

let ints slot n =
  let tables = Domain.DLS.get key in
  if Array.length tables.(slot) < n then
    tables.(slot) <- Array.make (Int.max n (2 * Array.length tables.(slot))) 0;
  tables.(slot)

(* A loop, not [Array.fill]: most tables are short, and the C call costs
   more than the stores. *)
let cleared slot n v =
  let a = ints slot n in
  for i = 0 to n - 1 do
    a.(i) <- v
  done;
  a
