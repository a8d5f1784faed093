(* Workload-suite tests: every SpecInt surrogate must terminate cleanly,
   produce identical results under the reference interpreter and the
   translated execution, and exhibit the architectural characteristic it
   was built for. *)

open Vat_guest
open Vat_core
open Vat_workloads

let fuel = 5_000_000

let interp_run b =
  let interp = Interp.create (Suite.load b) in
  let o = Interp.run ~fuel interp in
  (o, interp)

let exits name = function
  | Interp.Exited _ -> ()
  | Interp.Fault m -> Alcotest.failf "%s faulted: %s" name m
  | Interp.Out_of_fuel -> Alcotest.failf "%s ran out of fuel" name

let test_terminates (b : Suite.benchmark) () =
  let o, interp = interp_run b in
  exits b.name o;
  if Interp.instret interp < 10_000 then
    Alcotest.failf "%s too short: %d instructions" b.name
      (Interp.instret interp)

let vm_result =
  let cache = Hashtbl.create 16 in
  fun (b : Suite.benchmark) ->
    match Hashtbl.find_opt cache b.name with
    | Some r -> r
    | None ->
      let r = Vm.run ~fuel:50_000_000 Config.default (Suite.load b) in
      (match r.outcome with
       | Exec.Exited _ -> ()
       | _ -> Alcotest.failf "%s did not exit on the VM" b.name);
      Hashtbl.replace cache b.name r;
      r

let test_translated_equivalence (b : Suite.benchmark) () =
  let o, interp = interp_run b in
  exits b.name o;
  Alcotest.(check int) "digest" (Interp.digest interp) (vm_result b).digest

(* Final digests under [Config.default]. "translated = interpreted"
   compares two values that both go through [Mem.checksum], so it
   cannot see a checksum that changed the same way on both sides; these
   literals can. *)
let pinned_digests =
  [ ("164.gzip", 1353453789984137141);
    ("175.vpr", 2846997419513241383);
    ("176.gcc", 1488603187804896643);
    ("181.mcf", 182667750691814383);
    ("186.crafty", 4501027325854176820);
    ("197.parser", 4561277253611975776);
    ("253.perlbmk", 1143232362721045476);
    ("254.gap", 1804526245910383207);
    ("255.vortex", 506818204942048);
    ("256.bzip2", 3594239002108822765);
    ("300.twolf", 4326816713723460106) ]

let test_digest_pinned (b : Suite.benchmark) () =
  Alcotest.(check int) "digest" (List.assoc b.name pinned_digests)
    (vm_result b).digest

(* Every counter of every workload, pinned under [Config.default] and
   under the blocking-miss ablation ([scoreboard = false]): the engine's
   timing ([exec.cycles], [exec.stall_cycles], the suspend counts) and
   the L1 data cache's traffic ([l1d.*]) cannot move without failing
   here. One MD5 per config over the benchmarks' sorted [Stats], in
   suite order. *)
let pinned_stats =
  [ ("default", vm_result, "5e4c4f3d537a96cf2888ac7a0c18f404");
    ( "blocking misses",
      (fun b ->
        Vm.run ~fuel:50_000_000
          { Config.default with scoreboard = false }
          (Suite.load b)),
      "99049ad9821739ea18664df3ed0112a9" ) ]

let test_stats_pinned run md5 () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (b : Suite.benchmark) ->
      List.iter
        (fun (name, v) -> Printf.bprintf buf "%s %s %d\n" b.name name v)
        (Vat_desim.Stats.to_alist (run b).Vm.stats))
    Suite.all;
  Alcotest.(check string) "MD5 of every workload's stats" md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_deterministic (b : Suite.benchmark) () =
  (* Program construction is deterministic: same digest twice. *)
  let _, i1 = interp_run b in
  let _, i2 = interp_run b in
  Alcotest.(check bool) "same digest" true (Interp.digest i1 = Interp.digest i2)

(* Characteristics: the axes that drive the paper's figures. *)

let test_code_working_set_axis () =
  (* The big-code group must show far higher L2 code-cache traffic than
     the small-code group (Figure 6's decades). *)
  let rate n = Metrics.l2_code_accesses_per_cycle (vm_result (Suite.find n)) in
  let small = [ "mcf"; "perlbmk" ] and big = [ "gcc"; "vpr"; "crafty" ] in
  List.iter
    (fun s ->
      List.iter
        (fun bg ->
          if rate bg < 2.0 *. rate s then
            Alcotest.failf "%s (%.2e) should far exceed %s (%.2e)" bg (rate bg)
              s (rate s))
        big)
    small

let test_chaining_axis () =
  (* Small hot loops chain; code-thrashing benchmarks cannot. *)
  let chain n = Metrics.chain_rate (vm_result (Suite.find n)) in
  if chain "gzip" < 0.8 then
    Alcotest.failf "gzip should chain (%.2f)" (chain "gzip");
  if chain "mcf" < 0.8 then Alcotest.failf "mcf should chain (%.2f)" (chain "mcf");
  if chain "gcc" > 0.2 then
    Alcotest.failf "gcc should thrash the L1 code cache (%.2f)" (chain "gcc")

let test_memory_axis () =
  (* mcf must reward the 4-bank data cache strongly. *)
  let b = Suite.find "mcf" in
  let r1 = Vm.run ~fuel:50_000_000 (Config.trans_heavy Config.default) (Suite.load b) in
  let r4 = Vm.run ~fuel:50_000_000 (Config.mem_heavy Config.default) (Suite.load b) in
  if not (float_of_int r4.cycles < 0.85 *. float_of_int r1.cycles) then
    Alcotest.failf "mcf should gain >15%% from 4 banks (1 bank %d, 4 banks %d)"
      r1.cycles r4.cycles

let test_indirect_axis () =
  (* perlbmk's dispatch is indirect: speculation cannot hide its L2 code
     misses, so its L2 miss *rate* stays high. *)
  let r = vm_result (Suite.find "perlbmk") in
  if Metrics.l2_code_miss_rate r < 0.5 then
    Alcotest.failf "perlbmk L2 code misses should be demand-dominated (%.2f)"
      (Metrics.l2_code_miss_rate r)

let suite =
  List.concat_map
    (fun (b : Suite.benchmark) ->
      [ Alcotest.test_case (b.name ^ " terminates") `Quick (test_terminates b);
        Alcotest.test_case (b.name ^ " translated = interpreted") `Quick
          (test_translated_equivalence b);
        Alcotest.test_case (b.name ^ " digest pinned") `Quick
          (test_digest_pinned b);
        Alcotest.test_case (b.name ^ " deterministic") `Quick
          (test_deterministic b) ])
    Suite.all
  @ [ Alcotest.test_case "axis: code working set" `Slow
        test_code_working_set_axis;
      Alcotest.test_case "axis: chaining" `Slow test_chaining_axis;
      Alcotest.test_case "axis: memory banks" `Slow test_memory_axis;
      Alcotest.test_case "axis: indirect dispatch" `Slow test_indirect_axis ]
  @ List.map
      (fun (name, run, md5) ->
        Alcotest.test_case ("stats pinned: " ^ name) `Slow
          (test_stats_pinned run md5))
      pinned_stats
