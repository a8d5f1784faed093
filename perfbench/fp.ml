(* Cell fingerprints: the modelled result of one simulation, compared
   field by field against the pinned table and between passes. *)

open Vat_core

type t = {
  outcome : string;
  cycles : int;
  insns : int;
  digest : int;
  stats : int;  (** hash of every counter; 0 when not recorded *)
}

let outcome_string = function
  | Exec.Exited code -> Printf.sprintf "exited %d" code
  | Exec.Fault msg -> "fault: " ^ msg
  | Exec.Out_of_fuel -> "out of fuel"

(* FNV-1a over the sorted counter list. *)
let stats_hash stats =
  let h = ref 0x4bf29ce484222325 in
  let mix v = h := (!h lxor v) * 0x100000001b3 land max_int in
  List.iter
    (fun (k, v) ->
      String.iter (fun c -> mix (Char.code c)) k;
      mix v)
    (Vat_desim.Stats.to_alist stats);
  !h

let of_result (r : Vm.result) =
  { outcome = outcome_string r.outcome;
    cycles = r.cycles;
    insns = r.guest_insns;
    digest = r.digest;
    stats = stats_hash r.stats }

(* Names of the fields that differ; [stats] also compares the counter
   hash (the pinned table does not carry one). Empty iff they agree. *)
let diff ?(stats = true) a b =
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [ ("outcome", a.outcome = b.outcome);
      ("cycles", a.cycles = b.cycles);
      ("insns", a.insns = b.insns);
      ("digest", a.digest = b.digest);
      ("stats", (not stats) || a.stats = b.stats) ]

let to_string f =
  Printf.sprintf "%s, %d cycles, %d insns, digest 0x%x" f.outcome f.cycles
    f.insns f.digest
